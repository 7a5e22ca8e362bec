package dataspaces

import (
	"sync"
	"testing"
	"time"
)

// TestRequeuePreservesFCFS: a requeued task goes to the head of the
// queue — it is the oldest outstanding work — with its attempt count
// incremented.
func TestRequeuePreservesFCFS(t *testing.T) {
	s := newService(t, 1)
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 2}); err != nil {
		t.Fatal(err)
	}
	first, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Step != 1 || first.Attempts != 0 {
		t.Fatalf("unexpected first task %+v", first)
	}
	// The bucket "crashes": its task goes back to the front.
	if err := s.Requeue(first); err != nil {
		t.Fatal(err)
	}
	again, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Step != 1 {
		t.Fatalf("requeued task must be served before younger work, got step %d", again.Step)
	}
	if again.Attempts != 1 {
		t.Fatalf("requeue must increment attempts, got %d", again.Attempts)
	}
	next, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Step != 2 {
		t.Fatalf("younger task must follow, got step %d", next.Step)
	}
	if s.Requeues() != 1 {
		t.Fatalf("requeue counter %d, want 1", s.Requeues())
	}
}

// TestRequeueHandsToWaitingBucket: a free bucket waiting on
// BucketReady receives the requeued task immediately.
func TestRequeueHandsToWaitingBucket(t *testing.T) {
	s := newService(t, 1)
	got := make(chan Task, 1)
	go func() {
		task, err := s.BucketReadyCancel(nil)
		if err == nil {
			got <- task
		}
	}()
	// Let the bucket park itself, then requeue into it.
	for i := 0; i < 100 && s.FreeBuckets() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := s.Requeue(Task{ID: 7, TaskSpec: TaskSpec{Analysis: "a", Step: 3}, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case task := <-got:
		if task.ID != 7 || task.Attempts != 2 {
			t.Fatalf("waiting bucket got %+v", task)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("requeue never reached the waiting bucket")
	}
	s.Close()
}

// TestRequeueAfterCloseErrors: the caller must dead-letter when the
// service is gone.
func TestRequeueAfterCloseErrors(t *testing.T) {
	s := newService(t, 1)
	s.Close()
	if err := s.Requeue(Task{ID: 1}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestConcurrentRequeueOrdering: several buckets failing at once all
// push their tasks back to the head of the queue. The relative order
// among the racing requeues is scheduler-dependent, but every requeued
// (older) task must still be served before any younger queued work,
// each with its attempt count bumped exactly once.
func TestConcurrentRequeueOrdering(t *testing.T) {
	const old, young = 4, 3
	s := newService(t, 1)
	for i := 0; i < old; i++ {
		if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	assigned := make([]Task, old)
	for i := range assigned {
		task, err := s.BucketReadyCancel(nil)
		if err != nil {
			t.Fatal(err)
		}
		assigned[i] = task
	}
	// Younger work arrives while the old tasks are in flight.
	for i := 0; i < young; i++ {
		if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, task := range assigned {
		wg.Add(1)
		go func(task Task) {
			defer wg.Done()
			if err := s.Requeue(task); err != nil {
				t.Error(err)
			}
		}(task)
	}
	wg.Wait()
	if s.Requeues() != old {
		t.Fatalf("requeue counter %d, want %d", s.Requeues(), old)
	}
	seen := make(map[int]bool)
	for i := 0; i < old; i++ {
		task, err := s.BucketReadyCancel(nil)
		if err != nil {
			t.Fatal(err)
		}
		if task.Step >= 100 {
			t.Fatalf("younger task (step %d) served before a requeued one", task.Step)
		}
		if task.Attempts != 1 {
			t.Fatalf("step %d: attempts = %d, want 1", task.Step, task.Attempts)
		}
		if seen[task.Step] {
			t.Fatalf("step %d served twice", task.Step)
		}
		seen[task.Step] = true
	}
	for i := 0; i < young; i++ {
		task, err := s.BucketReadyCancel(nil)
		if err != nil {
			t.Fatal(err)
		}
		if task.Step != 100+i {
			t.Fatalf("younger work out of order: got step %d, want %d", task.Step, 100+i)
		}
	}
}

// TestSubmitTaskDeadline threads the deadline through to the bucket.
func TestSubmitTaskDeadline(t *testing.T) {
	s := newService(t, 1)
	dl := time.Now().Add(time.Hour)
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: 1, Deadline: dl}); err != nil {
		t.Fatal(err)
	}
	task, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Deadline.Equal(dl) {
		t.Fatalf("deadline lost: %v", task.Deadline)
	}
}
