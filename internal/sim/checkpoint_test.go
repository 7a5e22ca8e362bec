package sim

import (
	"errors"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// TestCheckpointRestoreBitIdentical runs a 2-rank simulation, snapshots
// at mid-run, restores fresh ranks from the snapshot, and checks that
// the continued trajectories agree bitwise with the uninterrupted run —
// the contract the recovery subsystem's resume path is built on.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	cfg := DefaultConfig(grid.NewBox(16, 10, 6), 2, 1, 1)
	cfg.SubSteps = 3
	cfg.Seed = 11
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const ckptAt, total = 3, 6
	snaps := make([][]*grid.Field, s.Ranks())
	finals := make([][]*grid.Field, s.Ranks())
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		rk.RunSteps(ckptAt)
		snaps[r.ID()] = rk.CheckpointFields()
		rk.RunSteps(total - ckptAt)
		finals[r.ID()] = rk.CheckpointFields()
	})

	restored := make([][]*grid.Field, s.Ranks())
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		ck, err := s.CheckCheckpoint(r.ID(), ckptAt, snaps[r.ID()])
		if err != nil {
			t.Error(err)
			return
		}
		rk.Restore(ck)
		if rk.step != ckptAt {
			t.Errorf("rank %d: step = %d after restore, want %d", r.ID(), rk.step, ckptAt)
		}
		rk.RunSteps(total - ckptAt)
		restored[r.ID()] = rk.CheckpointFields()
	})

	for rank := range finals {
		for vi, want := range finals[rank] {
			got := restored[rank][vi]
			if got.Name != want.Name || got.Box != want.Box {
				t.Fatalf("rank %d var %d: header mismatch", rank, vi)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("rank %d %s[%d]: restored %v != uninterrupted %v",
						rank, want.Name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestRestoreValidation: CheckCheckpoint, the check Restore's argument
// has passed, refuses step 0, a missing variable and a field over
// another block than the rank owns; only the last is a decomposition
// mismatch.
func TestRestoreValidation(t *testing.T) {
	cfg := DefaultConfig(grid.NewBox(8, 6, 4), 2, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([][]*grid.Field, s.Ranks())
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		rk.RunSteps(1)
		snaps[r.ID()] = rk.CheckpointFields()
	})
	if _, err := s.CheckCheckpoint(0, 1, snaps[0]); err != nil {
		t.Fatalf("rank 0's own checkpoint: %v", err)
	}
	for _, c := range []struct {
		name       string
		rank, step int
		fields     []*grid.Field
		decomp     bool
	}{
		{"step 0", 0, 0, snaps[0], false},
		{"missing variables", 0, 1, snaps[0][:2], false},
		{"another rank's block", 0, 1, snaps[1], true},
	} {
		_, err := s.CheckCheckpoint(c.rank, c.step, c.fields)
		if err == nil || errors.Is(err, ErrDecompMismatch) != c.decomp {
			t.Errorf("%s: CheckCheckpoint = %v, want a refusal (decomposition mismatch: %v)", c.name, err, c.decomp)
		}
	}
}
