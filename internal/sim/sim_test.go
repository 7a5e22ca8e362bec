package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

func smallConfig(px, py, pz int) Config {
	cfg := DefaultConfig(grid.NewBox(24, 12, 8), px, py, pz)
	cfg.KernelRate = 0.8
	return cfg
}

// runSim advances the simulation `steps` steps on the given
// decomposition and returns the global fields named in want.
func runSim(t *testing.T, cfg Config, steps int, want []string) map[string]*grid.Field {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*grid.Field)
	for _, name := range want {
		out[name] = grid.NewField(name, cfg.Global)
	}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		rk.RunSteps(steps)
		<-mu
		for _, name := range want {
			out[name].Paste(rk.Field(name))
		}
		mu <- struct{}{}
	})
	return out
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	cfg.SubSteps = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative SubSteps must error")
	}
	cfg = smallConfig(100, 1, 1)
	if _, err := New(cfg); err == nil {
		t.Fatal("overdecomposition must error")
	}
}

func TestWorldSizeMismatch(t *testing.T) {
	s, err := New(smallConfig(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	comm.Run(3, func(r *comm.Rank) {
		if _, err := s.NewRank(r); err == nil {
			t.Error("world size mismatch must error")
		}
	})
}

// TestDecompositionIndependence is the key numerical property: the
// fields after N steps are bitwise identical for 1, 2x2x1 and 3x2x2
// rank layouts.
func TestDecompositionIndependence(t *testing.T) {
	vars := []string{"T", "Y_H2", "Y_OH", "u"}
	ref := runSim(t, smallConfig(1, 1, 1), 8, vars)
	for _, p := range [][3]int{{2, 2, 1}, {3, 2, 2}, {4, 1, 2}} {
		got := runSim(t, smallConfig(p[0], p[1], p[2]), 8, vars)
		for _, name := range vars {
			for idx := range ref[name].Data {
				if got[name].Data[idx] != ref[name].Data[idx] {
					i, j, k := ref[name].Box.Point(idx)
					t.Fatalf("decomp %v: %s differs at (%d,%d,%d): %g vs %g",
						p, name, i, j, k, got[name].Data[idx], ref[name].Data[idx])
				}
			}
		}
	}
}

func TestFieldsStayPhysical(t *testing.T) {
	fields := runSim(t, smallConfig(2, 2, 1), 25, []string{"T", "Y_H2", "Y_O2", "Y_N2", "Y_OH"})
	for _, name := range []string{"Y_H2", "Y_O2", "Y_N2", "Y_OH"} {
		lo, hi := fields[name].MinMax()
		if lo < -1e-9 || hi > 1.0+1e-9 {
			t.Fatalf("%s out of [0,1]: [%g, %g]", name, lo, hi)
		}
	}
	lo, hi := fields["T"].MinMax()
	if lo < 0 || hi > 10 || math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatalf("temperature unphysical: [%g, %g]", lo, hi)
	}
	if hi <= lo {
		t.Fatal("temperature field is constant; dynamics missing")
	}
}

func TestReactionConsumesFuel(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	cfg.KernelRate = 0 // isolate chemistry
	before := runSim(t, cfg, 1, []string{"Y_H2", "Y_H2O"})
	after := runSim(t, cfg, 30, []string{"Y_H2", "Y_H2O"})
	sum := func(f *grid.Field) float64 {
		s := 0.0
		for _, v := range f.Data {
			s += v
		}
		return s
	}
	if sum(after["Y_H2O"]) <= sum(before["Y_H2O"]) {
		t.Fatal("water must be produced over time")
	}
}

func TestKernelDeterminism(t *testing.T) {
	s, _ := New(smallConfig(1, 1, 1))
	a := s.ActiveKernels(20)
	b := s.ActiveKernels(20)
	if len(a) != len(b) {
		t.Fatal("kernel generation must be deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("kernel generation must be deterministic")
		}
	}
}

// TestKernelsIgnoreGeneratorHistory: a rank reuses one generator for
// every birth step of every step, so what it drew before must not
// show in the kernels of a step.
func TestKernelsIgnoreGeneratorHistory(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	cfg.KernelRate = 2
	s, _ := New(cfg)
	used := rand.New(rand.NewSource(99))
	var buf []Kernel
	for step := 0; step < 30; step++ {
		buf = s.appendActiveKernels(buf[:0], used, step)
		if want := s.ActiveKernels(step); !slices.Equal(buf, want) {
			t.Fatalf("step %d: a reused generator drew %v, a fresh one %v", step, buf, want)
		}
	}
}

func TestKernelLifetimeWindow(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	cfg.KernelRate = 2
	s, _ := New(cfg)
	// A kernel born at step b must be active exactly for steps
	// [b, b+lifetime).
	born := s.appendKernelsBorn(nil, rand.New(rand.NewSource(0)), 5)
	if len(born) == 0 {
		t.Skip("no kernel born at step 5 with this seed")
	}
	countAt := func(step int) int {
		n := 0
		for _, k := range s.ActiveKernels(step) {
			if k.Birth == 5 {
				n++
			}
		}
		return n
	}
	if countAt(5) != len(born) || countAt(5+KernelLifetime-1) != len(born) {
		t.Fatal("kernel must be active through its lifetime")
	}
	if countAt(4) != 0 || countAt(5+KernelLifetime) != 0 {
		t.Fatal("kernel active outside its lifetime")
	}
}

// TestKernelCreatesTransientFeature verifies the Fig. 1 phenomenology:
// an ignition kernel produces a localized temperature bump that decays
// after its lifetime.
func TestKernelCreatesTransientFeature(t *testing.T) {
	cfg := DefaultConfig(grid.NewBox(32, 16, 8), 1, 1, 1)
	cfg.KernelRate = 0 // no random kernels
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.phys.turbAmp = 0 // quiescent, to isolate the bump
	// Drive one rank manually and inject a single kernel by hand.
	comm.Run(1, func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		baseline, _ := rk.Field("T").MinMax()
		_ = baseline
		_, hi0 := rk.Field("T").MinMax()
		kern := Kernel{Birth: 0, X: 8, Y: 8, Z: 4, Amp: 2, Radius: 2}
		dt := s.phys.dt
		for step := 0; step < KernelLifetime; step++ {
			rk.fillVelocity(float64(step) * dt)
			rk.advanceScalars(dt)
			rk.react(dt)
			// Manual injection mirroring injectKernels.
			rk.injectOne(kern, step)
			rk.fullExchange()
			rk.updateN2()
			rk.step++
		}
		_, hiMid := rk.Field("T").MinMax()
		if hiMid <= hi0+0.2 {
			t.Errorf("kernel did not create a feature: %g -> %g", hi0, hiMid)
			return
		}
		// Let it advect/diffuse away.
		for step := 0; step < 60; step++ {
			rk.Step()
		}
		_, hiEnd := rk.Field("T").MinMax()
		if hiEnd > hiMid {
			t.Errorf("feature did not decay: %g -> %g", hiMid, hiEnd)
		}
	})
}

func TestGhostedFieldCoversGhostBox(t *testing.T) {
	s, _ := New(smallConfig(2, 1, 1))
	comm.Run(2, func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		g := rk.GhostedField("T")
		if g.Box != rk.OwnedBox().Grow(1) {
			t.Errorf("ghost box wrong: %v vs %v", g.Box, rk.OwnedBox().Grow(1))
		}
		if rk.Field("nope") != nil {
			t.Error("unknown variable must return nil")
		}
	})
}

func TestVarNamesComplete(t *testing.T) {
	if len(VarNames) != 14 {
		t.Fatalf("the paper's runs use 14 variables, got %d", len(VarNames))
	}
	s, _ := New(smallConfig(1, 1, 1))
	comm.Run(1, func(r *comm.Rank) {
		rk, _ := s.NewRank(r)
		for _, name := range VarNames {
			if rk.Field(name) == nil {
				t.Errorf("variable %s missing", name)
			}
		}
	})
}

// BenchmarkRankStep times one step of the hybrid-compute benchmark's
// grid, 48×32×16 over two ranks that step together: the velocity
// modes, the advection, the ghost exchange and the boundary fill.
func BenchmarkRankStep(b *testing.B) {
	s, err := New(DefaultConfig(grid.NewBox(48, 32, 16), 2, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			b.Error(err)
			return
		}
		rk.Step()
		r.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		for range b.N {
			rk.Step()
		}
	})
}
