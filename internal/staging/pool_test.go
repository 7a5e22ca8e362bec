package staging

import (
	"errors"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
)

func waitActive(t *testing.T, a *Area, want int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if a.ActiveBuckets() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("active buckets = %d, want %d", a.ActiveBuckets(), want)
}

func TestAddAndRetireBuckets(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "echo", func(task dataspaces.Task, data [][]byte) (any, error) {
		return task.Step, nil
	})
	a.Start()
	if got := a.ActiveBuckets(); got != 2 {
		t.Fatalf("initial active = %d, want 2", got)
	}

	id := a.AddBucket()
	if id != 2 {
		t.Fatalf("added bucket id = %d, want 2", id)
	}
	waitActive(t, a, 3)

	// The added bucket serves traffic: with three buckets parked, three
	// concurrent tasks all complete.
	for s := 1; s <= 6; s++ {
		r.publish(t, "echo", s)
	}
	seen := 0
	for seen < 6 {
		select {
		case res := <-a.Results():
			if res.Err != nil {
				t.Fatalf("task err: %v", res.Err)
			}
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("drained %d of 6 results", seen)
		}
	}

	// Retire two: pool shrinks to 1 with no task loss; bucket 0 is
	// never retired.
	if !a.RetireBucket() || !a.RetireBucket() {
		t.Fatal("retire failed with eligible buckets")
	}
	waitActive(t, a, 1)
	if a.RetireBucket() {
		t.Fatal("retired bucket 0 (probe host)")
	}

	// The surviving bucket still serves.
	r.publish(t, "echo", 7)
	select {
	case res := <-a.Results():
		if res.Err != nil {
			t.Fatalf("post-shrink task err: %v", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-shrink task never completed")
	}

	r.ds.Close()
	a.Wait()
}

// TestRetireMidTaskFinishesAndSettles: a bucket retired while it holds
// a task finishes that task and emits its one final result before it
// leaves the pool — the producer settles every task exactly once, so a
// retire must neither lose a result nor emit one twice.
func TestRetireMidTaskFinishesAndSettles(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	a.HandleT("", "slow", func(task dataspaces.Task, data [][]byte) (any, error) {
		<-gate
		return "done", nil
	})
	a.Start()

	// Occupy BOTH buckets with blocked tasks so the retired one is
	// guaranteed to be mid-task.
	for s := 1; s <= 2; s++ {
		h := r.prod.RegisterMem([]byte("payload"))
		if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{
			Analysis: "slow", Step: s,
			Inputs: []dataspaces.Descriptor{{Name: "slow", Version: s, Rank: 0, Handle: h}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500 && r.ds.Assigned() < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if r.ds.Assigned() < 2 {
		t.Fatal("buckets never picked up the tasks")
	}
	a.RetireBucket()
	close(gate)

	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case res := <-a.Results():
			if res.Err != nil {
				t.Fatalf("task err: %v", res.Err)
			}
			seen[res.Task.Step] = true
		case <-time.After(5 * time.Second):
			t.Fatal("task held by retiring bucket was lost")
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("results for steps %v, want one each for 1 and 2", seen)
	}
	waitActive(t, a, 1)
	r.ds.Close()
	a.Wait()
	// Exactly one result per task: nothing is left once the pool drains.
	for res := range a.Results() {
		t.Fatalf("extra result after drain: step %d", res.Task.Step)
	}
}

func TestTenantScopedHandlers(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []string{"alpha", "beta"} {
		tn := tn
		a.HandleT(tn, "viz", func(task dataspaces.Task, data [][]byte) (any, error) {
			return tn, nil
		})
	}
	a.Start()
	for _, tn := range []string{"alpha", "beta"} {
		if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{Tenant: tn, Analysis: "viz", Step: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case res := <-a.Results():
			if res.Err != nil {
				t.Fatalf("task err: %v", res.Err)
			}
			if res.Output != res.Task.Tenant {
				t.Fatalf("tenant %q dispatched to handler %v", res.Task.Tenant, res.Output)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("tenant task never completed")
		}
	}
	r.ds.Close()
	a.Wait()
}

// TestDeadLetterErrorCarriesTaskAndLastCause: a task that fails every
// attempt surfaces a DeadLetterError that names the task and its
// attempt count and unwraps to both ErrDeadLetter and the failure that
// exhausted the budget.
func TestDeadLetterErrorCarriesTaskAndLastCause(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.maxAttempts = 2
	a.Start()
	// A task whose inputs reference an unregistered handle fails its
	// pulls on every attempt and dead-letters.
	bad := r.prod.RegisterMem([]byte("x"))
	if _, err := r.prod.Reclaim(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{
		Tenant: "noisy", Analysis: "poison", Step: 3,
		Inputs: []dataspaces.Descriptor{{Name: "poison", Version: 3, Rank: 0, Handle: bad}},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-a.Results():
		if !res.DeadLetter {
			t.Fatalf("result not dead-lettered: %+v", res)
		}
		var dl *DeadLetterError
		if !errors.As(res.Err, &dl) {
			t.Fatalf("err %T does not unwrap to DeadLetterError", res.Err)
		}
		if !errors.Is(res.Err, ErrDeadLetter) {
			t.Fatal("err does not unwrap to ErrDeadLetter")
		}
		if !errors.Is(res.Err, dart.ErrRegionNotFound) || !errors.Is(dl.Last, dart.ErrRegionNotFound) {
			t.Fatalf("err %v does not unwrap to the last cause, an unregistered region", res.Err)
		}
		if dl.Analysis != "poison" || dl.Step != 3 || dl.TaskID != res.Task.ID || res.Task.Tenant != "noisy" {
			t.Fatalf("dead-letter identity = %+v (task %+v)", dl, res.Task)
		}
		if dl.Attempts != 2 || res.Attempts != 2 {
			t.Fatalf("dead-letter after %d attempts (result %d), want 2", dl.Attempts, res.Attempts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead-letter never surfaced")
	}
	r.ds.Close()
	a.Wait()
}
