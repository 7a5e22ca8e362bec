package sim

import (
	"errors"
	"fmt"

	"insitu/internal/grid"
)

// CheckpointFields returns copies of every simulation variable over
// the rank's owned block, in VarNames order — the per-rank checkpoint
// payload. Only the owned interior is saved: ghost shells, prescribed
// velocity, and the derived Y_N2 are all reconstructed exactly by
// Restore, so the checkpoint carries no redundant state.
func (rk *Rank) CheckpointFields() []*grid.Field {
	out := make([]*grid.Field, 0, len(VarNames))
	for _, name := range VarNames {
		out = append(out, rk.Field(name))
	}
	return out
}

// ErrDecompMismatch refuses a checkpoint field over another block than
// the rank owns: a checkpoint cut for another decomposition.
var ErrDecompMismatch = errors.New("sim: the checkpoint's decomposition differs from the simulation's")

// A Checkpoint is one rank's saved state that CheckCheckpoint found
// Restore can install; Restore of the zero value panics.
type Checkpoint struct {
	step   int
	fields []*grid.Field // the advected variables, in advected order, each over the rank's owned block
}

// CheckCheckpoint is the one check of a checkpoint: fields, saved on
// rank after step completed steps (CheckpointFields' copies, or
// bp.ReadFile's), restore it when step >= 1 and every advected variable
// is present over the rank's owned block.
func (s *Sim) CheckCheckpoint(rank, step int, fields []*grid.Field) (Checkpoint, error) {
	if step < 1 {
		return Checkpoint{}, fmt.Errorf("sim: checkpoint step %d must be >= 1", step)
	}
	byName := make(map[string]*grid.Field, len(fields))
	for _, f := range fields {
		byName[f.Name] = f
	}
	owned := s.dc.Block(rank)
	ck := Checkpoint{step: step, fields: make([]*grid.Field, len(advected))}
	for i, name := range advected {
		f, ok := byName[name]
		if !ok {
			return Checkpoint{}, fmt.Errorf("sim: checkpoint missing variable %q", name)
		}
		if f.Box != owned {
			return Checkpoint{}, fmt.Errorf("%w: %q covers %v, rank %d owns %v", ErrDecompMismatch, name, f.Box, rank, owned)
		}
		ck.fields[i] = f
	}
	return ck, nil
}

// Restore installs ck, which CheckCheckpoint made for this rank, and
// so cannot fail. It reproduces the post-Step state bit for bit:
//
//   - the advected variables' owned interiors are pasted back,
//   - a full ghost exchange rebuilds every ghost shell (neighbor faces,
//     edges, corners, and physical boundary planes) — collective, so
//     every rank of the world must call Restore at the same point,
//   - the prescribed velocity and pressure are re-evaluated at the
//     time of the checkpoint step's last substep (exactly what Step
//     left behind), and
//   - updateN2 re-derives Y_N2 and re-clamps the species, which is
//     idempotent on already-clamped checkpoint data.
//
// Advancing a restored rank with Step therefore continues the original
// trajectory bitwise — the property the recovery crash matrix asserts.
func (rk *Rank) Restore(ck Checkpoint) {
	for i, name := range advected {
		rk.fields[name].Paste(ck.fields[i])
	}
	rk.step = ck.step
	rk.fullExchange()
	sub := rk.sim.cfg.SubSteps
	if sub == 0 {
		sub = 1
	}
	tLast := (float64(ck.step-1) + float64(sub-1)/float64(sub)) * rk.sim.phys.dt
	rk.fillVelocity(tLast)
	rk.updateN2()
}
