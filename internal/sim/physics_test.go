package sim

import (
	"math"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// TestJetVelocityProfile: the prescribed velocity is jet-like — fast
// in the core, slow in the coflow, always downstream (u > 0 on
// average).
func TestJetVelocityProfile(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.phys.turbAmp = 0 // isolate the mean profile
	d := cfg.Global.Dims()
	cy, cz := float64(d[1])/2, float64(d[2])/2
	uCore, _, _ := s.velocity(5, cy, cz, 0)
	uEdge, _, _ := s.velocity(5, 0, 0, 0)
	if uCore <= uEdge {
		t.Fatalf("jet core (%g) must be faster than coflow (%g)", uCore, uEdge)
	}
	if uEdge < s.phys.coflowV*0.9 {
		t.Fatalf("coflow velocity too small: %g", uEdge)
	}
	if diff := uCore - s.phys.jetVelocity; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("centerline velocity %g != configured %g", uCore, s.phys.jetVelocity)
	}
}

// TestTurbulenceBounded: the vortical perturbations never exceed
// TurbAmp per component, the bound the CFL check relies on.
func TestTurbulenceBounded(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := New(cfg)
	base.phys.turbAmp = 0
	for i := 0; i < 200; i++ {
		x, y, z := float64(i%24), float64((i*7)%12), float64((i*3)%8)
		tt := float64(i) * 0.37
		u1, v1, w1 := s.velocity(x, y, z, tt)
		u0, v0, w0 := base.velocity(x, y, z, tt)
		for _, dv := range []float64{u1 - u0, v1 - v0, w1 - w0} {
			if dv > s.phys.turbAmp+1e-12 || dv < -s.phys.turbAmp-1e-12 {
				t.Fatalf("turbulent component %g exceeds bound %g", dv, s.phys.turbAmp)
			}
		}
	}
}

// TestInflowReplenishesFuel: the x=0 boundary keeps feeding cold fuel,
// so the jet core near the inlet stays fuel-rich even as the flame
// burns downstream.
func TestInflowReplenishesFuel(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = RunAll(s, func(rk *Rank) error {
		rk.RunSteps(40)
		d := cfg.Global.Dims()
		h2 := rk.Field("Y_H2").At(0, d[1]/2, d[2]/2)
		if h2 < 0.5 {
			t.Errorf("inlet jet core fuel depleted: Y_H2=%g", h2)
		}
		if got := rk.step; got != 40 {
			t.Errorf("step count: want 40, got %d", got)
		}
		if rk.Comm() == nil || rk.Comm().Size() != 1 {
			t.Error("Comm accessor broken")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubStepsEquivalence: SubSteps=n advances with dt/n substeps; the
// result is a (slightly more accurate) solution of the same problem,
// so fields must stay close to the SubSteps=1 run, and identical
// across decompositions.
func TestSubStepsEquivalence(t *testing.T) {
	base := smallConfig(1, 1, 1)
	base.KernelRate = 0
	sub := base
	sub.SubSteps = 4

	run := func(cfg Config) *grid.Field {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out *grid.Field
		comm.Run(1, func(r *comm.Rank) {
			rk, _ := s.NewRank(r)
			rk.RunSteps(5)
			out = rk.Field("T")
		})
		return out
	}
	a, b := run(base), run(sub)
	var maxDiff float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.1 {
		t.Fatalf("substepped solution diverged: max diff %g", maxDiff)
	}
	if maxDiff == 0 {
		t.Fatal("substepping should change the discretization slightly")
	}

	// Decomposition independence must hold with substeps too.
	sub2 := sub
	sub2.Px, sub2.Py, sub2.Pz = 2, 2, 1
	s2, err := New(sub2)
	if err != nil {
		t.Fatal(err)
	}
	got := grid.NewField("T", sub2.Global)
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	comm.Run(s2.Ranks(), func(r *comm.Rank) {
		rk, _ := s2.NewRank(r)
		rk.RunSteps(5)
		f := rk.Field("T")
		<-gate
		got.Paste(f)
		gate <- struct{}{}
	})
	for i := range b.Data {
		if got.Data[i] != b.Data[i] {
			t.Fatal("substepped run is not decomposition independent")
		}
	}
}

// TestPressureField: P is filled everywhere and anticorrelates with
// speed (Bernoulli-like).
func TestPressureField(t *testing.T) {
	cfg := smallConfig(1, 1, 1)
	s, _ := New(cfg)
	err := RunAll(s, func(rk *Rank) error {
		rk.RunSteps(2)
		p := rk.Field("P")
		u := rk.Field("u")
		d := cfg.Global.Dims()
		core := p.At(d[0]/2, d[1]/2, d[2]/2)
		edge := p.At(d[0]/2, 0, 0)
		if u.At(d[0]/2, d[1]/2, d[2]/2) > u.At(d[0]/2, 0, 0) && core >= edge {
			t.Errorf("pressure should drop where speed rises: core %g vs edge %g", core, edge)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhysicsIsStable: the fixed physics keeps the explicit scheme
// stable at any SubSteps >= 1 (the worst case is one substep of the
// whole dt). Upwind advection-diffusion needs dt*(|u|+|v|+|w|) + 6 D dt
// <= 1, kept at 0.9; the turbulence adds at most turbAmp per component
// (TestTurbulenceBounded). Diffusion alone needs D dt <= 1/6, and a
// kernel must live at least one step. A retune that breaks any of these
// fails here.
func TestPhysicsIsStable(t *testing.T) {
	ph := proxyPhysics
	if ph.dt <= 0 {
		t.Fatalf("time step %g must be positive", ph.dt)
	}
	vmax := math.Abs(ph.jetVelocity) + 3*ph.turbAmp
	if cfl := ph.dt*vmax + 6*ph.diffusivity*ph.dt; cfl > 0.9 {
		t.Fatalf("CFL violation: dt=%g with velocity bound %g gives %g > 0.9", ph.dt, vmax, cfl)
	}
	if ph.diffusivity*ph.dt > 1.0/6 {
		t.Fatalf("diffusive stability violated: D*dt=%g > 1/6", ph.diffusivity*ph.dt)
	}
	if KernelLifetime < 1 {
		t.Fatalf("kernel lifetime %d must be >= 1", KernelLifetime)
	}
}
