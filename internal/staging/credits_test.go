package staging

import (
	"errors"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/faults"
)

// TestCreditSettledOnRequeueThenDeadLetter: a credited task that burns
// its whole attempt budget (requeue, requeue, dead-letter) must hold
// its credit across every requeue and release it exactly once, when
// the dead-letter Result finally settles — the no-leak guarantee the
// drain-time invariant depends on.
func TestCreditSettledOnRequeueThenDeadLetter(t *testing.T) {
	r := newRig(t)
	if err := r.ds.EnableCredits(2, nil); err != nil {
		t.Fatal(err)
	}
	// Every transfer drops: each attempt's pull fails and failTask
	// requeues until the budget is gone.
	r.fabric.Network().SetFaults(faults.New(faults.Config{Seed: 3, Default: faults.Rates{Drop: 1}}))
	r.fabric.SetRetryPolicy(dart.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})
	a, err := New(r.fabric, r.ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return nil, nil
	})
	a.Start()

	c := r.ds.Credits()
	if !c.Acquire("work") {
		t.Fatal("acquire must succeed")
	}
	h := r.prod.RegisterMem([]byte("unreachable"))
	_, err = r.ds.SubmitSpec(dataspaces.TaskSpec{
		Analysis: "work",
		Step:     1,
		Inputs:   []dataspaces.Descriptor{{Name: "work", Version: 1, Handle: h}},
		Account:  "work",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-a.Results()
	if !res.DeadLetter || !errors.Is(res.Err, ErrDeadLetter) {
		t.Fatalf("want dead-letter result, got err=%v", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want the full budget of 3", res.Attempts)
	}
	if got := c.Outstanding(); got != 0 {
		t.Fatalf("credit leaked through requeue->dead-letter: outstanding=%d", got)
	}
	if c.Available() != c.Total() {
		t.Fatalf("account did not drain: avail=%d total=%d", c.Available(), c.Total())
	}
	r.ds.Close()
	a.Wait()
}

// TestCreditSettledOnSuccess: the normal path — a credited task's
// credit is released when its successful Result is emitted, making it
// re-acquirable for the next admitted step.
func TestCreditSettledOnSuccess(t *testing.T) {
	r := newRig(t)
	if err := r.ds.EnableCredits(1, nil); err != nil {
		t.Fatal(err)
	}
	a, err := New(r.fabric, r.ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return string(data[0]), nil
	})
	a.Start()
	c := r.ds.Credits()
	if !c.Acquire("work") {
		t.Fatal("acquire must succeed")
	}
	h := r.prod.RegisterMem([]byte("payload"))
	_, err = r.ds.SubmitSpec(dataspaces.TaskSpec{
		Analysis: "work",
		Step:     1,
		Inputs:   []dataspaces.Descriptor{{Name: "work", Version: 1, Handle: h}},
		Account:  "work",
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-a.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := c.Outstanding(); got != 0 {
		t.Fatalf("success must settle the credit, outstanding=%d", got)
	}
	if !c.Acquire("work") {
		t.Fatal("settled credit must be re-acquirable")
	}
	c.Release("work")
	r.ds.Close()
	a.Wait()
}
