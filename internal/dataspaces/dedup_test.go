package dataspaces

import (
	"errors"
	"testing"

	"insitu/internal/grid"
)

// TestPutReplacesSameRank: re-registering a (Name, Version, Rank)
// descriptor — the journal-replay case — replaces the stale handle
// instead of doubling the task's inputs.
func TestPutReplacesSameRank(t *testing.T) {
	s := newService(t, 2)
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 0, Box: grid.NewBox(4, 4, 4)})
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 1, Box: grid.NewBox(4, 4, 4)})
	// Replay of rank 0's registration with a new handle.
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 0, Box: grid.NewBox(8, 4, 4)})
	got := s.QueryT("", "viz", 7)
	if len(got) != 2 {
		t.Fatalf("want 2 descriptors after replayed Put, got %d", len(got))
	}
	for _, d := range got {
		if d.Rank == 0 && d.Box != grid.NewBox(8, 4, 4) {
			t.Fatalf("rank 0 descriptor not replaced: %+v", d)
		}
	}
}

// TestSubmitDedup: with dedup enabled, a second submission of the same
// (analysis, step) — or one seeded as already committed — fails with
// the typed ErrDuplicateTask, and other keys are unaffected.
func TestSubmitDedup(t *testing.T) {
	s := newService(t, 1)
	s.EnableDedup([]TaskKey{{Analysis: "stats", Step: 2}})

	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 3}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 3}); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("duplicate submit: err = %v, want ErrDuplicateTask", err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 2}); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("seeded-committed submit: err = %v, want ErrDuplicateTask", err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "viz", Step: 3}); err != nil {
		t.Fatalf("different analysis, same step: %v", err)
	}
	if d := s.QueueDepth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
}

// TestSubmitDedupQueueFull: a key rejected by the queue bound is not
// marked done — backpressure shedding must not poison the dedup set.
func TestSubmitDedupQueueFull(t *testing.T) {
	s := newService(t, 1)
	s.EnableDedup(nil)
	s.SetQueueBound(1)
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("bounded submit: err = %v, want ErrQueueFull", err)
	}
	s.SetQueueBound(0)
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 2}); err != nil {
		t.Fatalf("resubmit after backpressure: %v", err)
	}
}
