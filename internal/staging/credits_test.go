package staging

import (
	"testing"

	"insitu/internal/dataspaces"
)

// TestCreditSettledOnSuccess: the normal path — a credited task yields
// exactly one successful Result that is still marked credited and names
// the tenant whose account it was charged to, so the result's consumer
// settles the credit and it is
// re-acquirable for the next admitted step. Staging itself never
// touches the account.
func TestCreditSettledOnSuccess(t *testing.T) {
	r := newRig(t)
	c, err := dataspaces.NewCredits(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(r.fabric, r.ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("t", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return string(data[0]), nil
	})
	a.Start()
	if !c.Acquire("t") {
		t.Fatal("acquire must succeed")
	}
	h := r.prod.RegisterMem([]byte("payload"))
	_, err = r.ds.SubmitSpec(dataspaces.TaskSpec{
		Analysis: "work",
		Step:     1,
		Inputs:   []dataspaces.Descriptor{{Name: "work", Version: 1, Handle: h}},
		Tenant:   "t",
		Credited: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-a.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Task.Credited || res.Task.Tenant != "t" {
		t.Fatalf("result lost its credit mark or tenant: %+v", res.Task.TaskSpec)
	}
	if got := c.Outstanding(); got != 1 {
		t.Fatalf("staging must not settle the credit itself, outstanding=%d", got)
	}
	c.Release(res.Task.Tenant)
	if got := c.Outstanding(); got != 0 {
		t.Fatalf("settling the result's account must drain it, outstanding=%d", got)
	}
	if !c.Acquire("t") {
		t.Fatal("settled credit must be re-acquirable")
	}
	c.Release("t")
	r.ds.Close()
	a.Wait()
	select {
	case extra, ok := <-a.Results():
		if ok {
			t.Fatalf("one task must yield one result, got an extra: %+v", extra)
		}
	default:
	}
}
