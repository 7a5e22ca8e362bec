package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// TestGhostShellRewrittenEveryStep guards the shared advection scratch:
// advanceScalars leaves each advected field's ghost shell holding
// another variable's stale values, and the step's ghost exchange must
// rewrite every one of those cells. The scratch is NaN-filled before
// every Step, so a stale value the step reads or leaves behind shows as
// a NaN in a ghosted field. After every Step, each advected field's
// ghost shell is NaN-filled again and re-exchanged: the whole ghost box
// must come back bit-identical, so a face, edge or corner cell that the
// exchange or the boundary fill skips fails it, for every variable.
func TestGhostShellRewrittenEveryStep(t *testing.T) {
	const steps = 4
	for _, p := range [][3]int{{1, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		cfg := smallConfig(p[0], p[1], p[2])
		cfg.SubSteps = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		comm.Run(s.Ranks(), func(r *comm.Rank) {
			rk, err := s.NewRank(r)
			if err != nil {
				t.Error(err)
				return
			}
			// The first mismatch only; every rank keeps stepping and
			// exchanging so the collectives stay matched.
			var bad string
			var saved []float64
			for step := 1; step <= steps; step++ {
				for i := range rk.scratch.Data {
					rk.scratch.Data[i] = math.NaN()
				}
				rk.Step()
				for _, name := range VarNames {
					for idx, v := range rk.fields[name].Data {
						if math.IsNaN(v) && bad == "" {
							i, j, k := rk.ghost.Point(idx)
							bad = fmt.Sprintf("step %d: %s(%d,%d,%d) is NaN after Step", step, name, i, j, k)
						}
					}
				}
				for _, name := range advected {
					f := rk.fields[name]
					saved = append(saved[:0], f.Data...)
					for idx := range f.Data {
						if !rk.owned.Contains(rk.ghost.Point(idx)) {
							f.Data[idx] = math.NaN()
						}
					}
					rk.fullExchange()
					for idx, v := range f.Data {
						if math.Float64bits(v) != math.Float64bits(saved[idx]) && bad == "" {
							i, j, k := rk.ghost.Point(idx)
							bad = fmt.Sprintf("step %d: %s(%d,%d,%d) re-exchanges to %v, the step left %v", step, name, i, j, k, v, saved[idx])
						}
					}
				}
			}
			if bad != "" {
				t.Errorf("decomp %v rank %d: %s", p, r.ID(), bad)
			}
		})
	}
}

// TestNewRankHoldsOneScratch: a rank holds its 14 variables and one
// advection scratch over the ghost box, not a scratch per advected
// variable. Besides the slab of those 15 fields and its ignition-kernel
// generator (a 607-word source), NewRank allocates under 4 KB: the
// field map and the headers. Once a rank is released, the next NewRank
// draws its slab and generator again and allocates only that 4 KB.
func TestNewRankHoldsOneScratch(t *testing.T) {
	// A 16^3 ghost box: a field's 32 KiB fill their size class exactly.
	cfg := DefaultConfig(grid.NewBox(14, 14, 14), 1, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fieldBytes := uint64(8 * s.Decomp().Block(0).Grow(1).Size())
	// The cheapest of three: what another goroutine allocates meanwhile
	// lands in single tries.
	cheapest := func(fn func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			fn()
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	var gen *rand.Rand
	generator := cheapest(func() { gen = rand.New(rand.NewSource(0)) })
	_ = gen
	var alloc, reused uint64
	comm.Run(1, func(r *comm.Rank) {
		alloc = cheapest(func() {
			if _, err := s.NewRank(r); err != nil {
				t.Error(err)
			}
		})
		rk, _ := s.NewRank(r)
		rk.Release()
		reused = cheapest(func() {
			rk, _ := s.NewRank(r)
			rk.Release()
		})
	})
	limit := uint64(len(VarNames)+1)*fieldBytes + generator + 4<<10
	t.Logf("NewRank allocates %d B, %d B after a Release; a ghost-box field is %d B, the kernel generator %d B", alloc, reused, fieldBytes, generator)
	if alloc > limit {
		t.Errorf("NewRank allocates %d B, want <= %d: %d ghost-box fields, the generator and 4 KB",
			alloc, limit, len(VarNames)+1)
	}
	if reused > 4<<10 {
		t.Errorf("NewRank after a Release allocates %d B, want <= 4 KB", reused)
	}
}
