package sim

import (
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

// Restore installs a checkpoint taken with CheckpointFields after
// `step` completed steps, reproducing the post-Step state bit for bit:
//
//   - the advected variables' owned interiors are pasted back,
//   - a full ghost exchange rebuilds every ghost shell (neighbor faces,
//     edges, corners, and physical boundary planes) — collective, so
//     every rank of the world must call Restore at the same point,
//   - the prescribed velocity and pressure are re-evaluated at the
//     time of step's last substep (exactly what Step left behind), and
//   - updateN2 re-derives Y_N2 and re-clamps the species, which is
//     idempotent on already-clamped checkpoint data.
//
// Advancing a restored rank with Step therefore continues the original
// trajectory bitwise — the property the recovery crash matrix asserts.
func (rk *Rank) Restore(step int, fields []*grid.Field) error {
	if step < 1 {
		return fmt.Errorf("sim: restore: step %d must be >= 1", step)
	}
	byName := make(map[string]*grid.Field, len(fields))
	for _, f := range fields {
		byName[f.Name] = f
	}
	for _, name := range advected {
		f, ok := byName[name]
		if !ok {
			return fmt.Errorf("sim: restore: checkpoint missing variable %q", name)
		}
		if f.Box != rk.owned {
			return fmt.Errorf("sim: restore: %q covers %v, rank owns %v", name, f.Box, rk.owned)
		}
		rk.fields[name].Paste(f)
	}
	rk.step = step
	rk.fullExchange()
	sub := rk.sim.cfg.SubSteps
	if sub == 0 {
		sub = 1
	}
	tLast := (float64(step-1) + float64(sub-1)/float64(sub)) * rk.sim.phys.dt
	rk.fillVelocity(tLast)
	rk.updateN2()
	return nil
}
