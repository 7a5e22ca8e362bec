package sim

import (
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
		if err := rk.Restore(ckptAt, snaps[r.ID()]); err != nil {
			t.Error(err)
			return
		}
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

func TestRestoreValidation(t *testing.T) {
	cfg := DefaultConfig(grid.NewBox(8, 6, 4), 1, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(1, func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		rk.RunSteps(1)
		snap := rk.CheckpointFields()
		if err := rk.Restore(0, snap); err == nil {
			t.Error("step 0 restore must fail")
		}
		if err := rk.Restore(1, snap[:2]); err == nil {
			t.Error("missing variables must fail")
		}
	})
}
