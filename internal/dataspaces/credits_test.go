package dataspaces

import (
	"sync"
	"testing"
)

func TestCreditsReservationThenShared(t *testing.T) {
	c, err := NewCredits(4, map[string]int{"viz": 1, "stats": 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 || c.Available() != 4 || c.Outstanding() != 0 {
		t.Fatalf("fresh account: total=%d avail=%d out=%d", c.Total(), c.Available(), c.Outstanding())
	}
	// viz drains its reservation, then the 2-credit shared pool.
	for i := 0; i < 3; i++ {
		if !c.Acquire("viz") {
			t.Fatalf("acquire %d must succeed", i)
		}
	}
	// The shared pool is gone, but stats still holds its reservation.
	if c.Exhausted("stats") {
		t.Fatal("stats reservation must survive viz draining the shared pool")
	}
	if !c.Acquire("stats") {
		t.Fatal("stats must get its reserved credit")
	}
	// Now everyone is dry.
	if !c.Exhausted("viz") || !c.Exhausted("stats") {
		t.Fatal("account must be exhausted")
	}
	if c.Acquire("viz") {
		t.Fatal("acquire on an empty account must fail")
	}
	if c.Outstanding()+c.Available() != c.Total() {
		t.Fatalf("invariant broken: out=%d avail=%d total=%d", c.Outstanding(), c.Available(), c.Total())
	}
	// Release refills the reservation before the shared pool: after one
	// stats release, a viz acquire must NOT be able to take it.
	c.Release("stats")
	if c.Acquire("viz") {
		t.Fatal("released reserved credit must refill the reservation, not the shared pool")
	}
	if !c.Acquire("stats") {
		t.Fatal("stats must re-acquire its refilled reservation")
	}
	// Drain everything back and check the invariant closes.
	c.Release("viz")
	c.Release("viz")
	c.Release("viz")
	c.Release("stats")
	if c.Outstanding() != 0 || c.Available() != c.Total() {
		t.Fatalf("after full release: out=%d avail=%d total=%d", c.Outstanding(), c.Available(), c.Total())
	}
}

func TestCreditsOverReleasePanics(t *testing.T) {
	c, err := NewCredits(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an un-acquired credit must panic")
		}
	}()
	c.Release("viz")
}

func TestCreditsBadConfig(t *testing.T) {
	if _, err := NewCredits(0, nil); err == nil {
		t.Fatal("zero total must error")
	}
	if _, err := NewCredits(2, map[string]int{"a": 3}); err == nil {
		t.Fatal("reservations beyond the supply must error")
	}
	if _, err := NewCredits(2, map[string]int{"a": -1}); err == nil {
		t.Fatal("negative reservation must error")
	}
}

func TestCreditsConcurrentInvariant(t *testing.T) {
	c, err := NewCredits(8, map[string]int{"viz": 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		name := "stats"
		if w%2 == 0 {
			name = "viz"
		}
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if c.Acquire(name) {
					c.Release(name)
				}
			}
		}(name)
	}
	wg.Wait()
	if c.Outstanding() != 0 || c.Available() != c.Total() {
		t.Fatalf("invariant broken after churn: out=%d avail=%d total=%d",
			c.Outstanding(), c.Available(), c.Total())
	}
}

func TestQueueBoundRejectsSubmissions(t *testing.T) {
	s := newService(t, 1)
	s.SetTenants(map[string]int{"": 2})
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 2}); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	// A waiting bucket bypasses the bound: hand-off does not queue.
	if _, err := s.BucketReadyCancel(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 3}); err != nil {
		t.Fatalf("submit after drain must succeed, got %v", err)
	}
	// Requeue is exempt from the bound.
	full, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Requeue(full); err != nil {
		t.Fatalf("requeue must bypass the queue bound, got %v", err)
	}
	if s.QueueDepth() != 3 {
		t.Fatalf("queue depth %d, want 3", s.QueueDepth())
	}
}

// TestSubmitSpecThreadsShapedAndCredited: the producer's labels ride
// the task to the bucket and survive a requeue unchanged — Shaped, the
// Credited mark and the quarantine Probe mark are carried, never
// interpreted.
func TestSubmitSpecThreadsShapedAndCredited(t *testing.T) {
	s := newService(t, 1)
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 1, Shaped: true, Credited: true, Probe: true}); err != nil {
		t.Fatal(err)
	}
	task, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Shaped || !task.Credited || !task.Probe {
		t.Fatalf("spec fields lost: %+v", task)
	}
	if err := s.Requeue(task); err != nil {
		t.Fatal(err)
	}
	task, err = s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Shaped || !task.Credited || !task.Probe || task.Attempts != 1 {
		t.Fatalf("spec fields lost across requeue: %+v", task)
	}
}
