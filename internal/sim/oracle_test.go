package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// The oracle: a rank built the way ranks were before they shared one
// recycled slab — every variable its own grid.NewField — stepped by
// kernels that address every cell through Field.At and Field.Set and
// look their fields up by name. The slab kernels must reproduce it bit
// for bit.

// velocity returns the prescribed velocity at continuous position
// (x,y,z) and time t: jet profile plus vortical modes, evaluated per
// point.
func (s *Sim) velocity(x, y, z, t float64) (u, v, w float64) {
	d := s.cfg.Global.Dims()
	cy, cz := float64(d[1])/2, float64(d[2])/2
	r2 := ((y-cy)*(y-cy) + (z-cz)*(z-cz)) / (s.phys.jetRadius * s.phys.jetRadius)
	u = s.phys.coflowV + (s.phys.jetVelocity-s.phys.coflowV)*math.Exp(-r2)
	if len(s.modes) == 0 {
		return
	}
	amp := s.phys.turbAmp / float64(len(s.modes))
	for _, m := range s.modes {
		ph := m.kx*x + m.ky*y + m.kz*z + m.phase + m.omega*t
		u += amp * m.ax * math.Sin(ph)
		v += amp * m.ay * math.Sin(ph+1.0)
		w += amp * m.az * math.Cos(ph)
	}
	return
}

// newOracleRank builds comm rank r's state with one grid.NewField per
// variable and the oracle kernels.
func newOracleRank(s *Sim, r *comm.Rank) *Rank {
	owned := s.dc.Block(r.ID())
	rk := &Rank{
		sim: s, r: r, owned: owned, ghost: owned.Grow(1),
		fields:  make(map[string]*grid.Field, len(VarNames)),
		scratch: grid.NewField("", owned.Grow(1)),
		mem:     &rankMem{rng: rand.New(rand.NewSource(0))},
	}
	for _, name := range VarNames {
		rk.fields[name] = grid.NewField(name, rk.ghost)
	}
	b := rk.ghost
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			jet := s.inflowJet(float64(j), float64(k))
			for _, name := range advected {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					rk.fields[name].Set(i, j, k, s.inflow(name, jet))
				}
			}
		}
	}
	rk.oracleFillVelocity(0)
	rk.oracleUpdateN2()
	return rk
}

// oracleStep is Step on the oracle kernels; the ghost exchange and the
// ignition kernels are shared.
func (rk *Rank) oracleStep() {
	sub := max(rk.sim.cfg.SubSteps, 1)
	dtSub := rk.sim.phys.dt / float64(sub)
	for s := 0; s < sub; s++ {
		t := (float64(rk.step) + float64(s)/float64(sub)) * rk.sim.phys.dt
		rk.oracleFillVelocity(t)
		rk.oracleAdvanceScalars(dtSub)
		rk.oracleReact(dtSub)
		if s == sub-1 {
			rk.injectKernels(rk.step)
		}
		rk.fullExchange()
	}
	rk.oracleUpdateN2()
	rk.step++
}

func (rk *Rank) oracleFillVelocity(t float64) {
	u, v, w, p := rk.GhostedField("u"), rk.GhostedField("v"), rk.GhostedField("w"), rk.GhostedField("P")
	b := rk.ghost
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				uu, vv, ww := rk.sim.velocity(float64(i), float64(j), float64(k), t)
				u.Set(i, j, k, uu)
				v.Set(i, j, k, vv)
				w.Set(i, j, k, ww)
				p.Set(i, j, k, 1-0.5*(uu*uu+vv*vv+ww*ww))
			}
		}
	}
}

func (rk *Rank) oracleAdvanceScalars(dt float64) {
	ph := rk.sim.phys
	u, v, w := rk.GhostedField("u"), rk.GhostedField("v"), rk.GhostedField("w")
	for _, name := range advected {
		f := rk.fields[name]
		out := rk.scratch
		for k := rk.owned.Lo[2]; k < rk.owned.Hi[2]; k++ {
			for j := rk.owned.Lo[1]; j < rk.owned.Hi[1]; j++ {
				for i := rk.owned.Lo[0]; i < rk.owned.Hi[0]; i++ {
					c := f.At(i, j, k)
					xm := f.At(i-1, j, k)
					xp := f.At(i+1, j, k)
					ym := f.At(i, j-1, k)
					yp := f.At(i, j+1, k)
					zm := f.At(i, j, k-1)
					zp := f.At(i, j, k+1)

					uu, vv, ww := u.At(i, j, k), v.At(i, j, k), w.At(i, j, k)
					var adv float64
					if uu >= 0 {
						adv += uu * (c - xm)
					} else {
						adv += uu * (xp - c)
					}
					if vv >= 0 {
						adv += vv * (c - ym)
					} else {
						adv += vv * (yp - c)
					}
					if ww >= 0 {
						adv += ww * (c - zm)
					} else {
						adv += ww * (zp - c)
					}
					lap := xm + xp + ym + yp + zm + zp - 6*c
					out.Set(i, j, k, c+dt*(-adv+ph.diffusivity*lap))
				}
			}
		}
		out.Name = name
		rk.fields[name], rk.scratch = out, f
	}
}

func (rk *Rank) oracleReact(dt float64) {
	ph := rk.sim.phys
	T := rk.GhostedField("T")
	h2 := rk.GhostedField("Y_H2")
	o2 := rk.GhostedField("Y_O2")
	h2o := rk.GhostedField("Y_H2O")
	oh := rk.GhostedField("Y_OH")
	ho2 := rk.GhostedField("Y_HO2")
	h2o2 := rk.GhostedField("Y_H2O2")
	hr := rk.GhostedField("Y_H")
	or := rk.GhostedField("Y_O")
	for k := rk.owned.Lo[2]; k < rk.owned.Hi[2]; k++ {
		for j := rk.owned.Lo[1]; j < rk.owned.Hi[1]; j++ {
			for i := rk.owned.Lo[0]; i < rk.owned.Hi[0]; i++ {
				t := T.At(i, j, k)
				yh2, yo2 := h2.At(i, j, k), o2.At(i, j, k)
				rate := ph.reactA * yh2 * yo2 * math.Exp(-ph.reactTa/math.Max(t, 0.05))
				c := rate * dt
				if c > yh2 {
					c = yh2
				}
				if 8*c > yo2 {
					c = yo2 / 8
				}
				h2.Set(i, j, k, yh2-c)
				o2.Set(i, j, k, yo2-8*c)
				h2o.Set(i, j, k, h2o.At(i, j, k)+9*c)
				T.Set(i, j, k, t+ph.heatRelease*c)
				oh.Set(i, j, k, oh.At(i, j, k)+0.30*c-0.5*dt*oh.At(i, j, k))
				ho2.Set(i, j, k, ho2.At(i, j, k)+0.10*c-0.8*dt*ho2.At(i, j, k))
				h2o2.Set(i, j, k, h2o2.At(i, j, k)+0.05*c-0.3*dt*h2o2.At(i, j, k))
				hr.Set(i, j, k, hr.At(i, j, k)+0.08*c-1.0*dt*hr.At(i, j, k))
				or.Set(i, j, k, or.At(i, j, k)+0.06*c-1.0*dt*or.At(i, j, k))
			}
		}
	}
}

func (rk *Rank) oracleUpdateN2() {
	n2 := rk.GhostedField("Y_N2")
	species := []string{"Y_H2", "Y_O2", "Y_H2O", "Y_OH", "Y_HO2", "Y_H2O2", "Y_H", "Y_O"}
	for idx := range n2.Data {
		sum := 0.0
		for _, sp := range species {
			y := rk.GhostedField(sp).Data[idx]
			if y < 0 {
				y = 0
				rk.GhostedField(sp).Data[idx] = y
			} else if y > 1 {
				y = 1
				rk.GhostedField(sp).Data[idx] = y
			}
			sum += y
		}
		v := 1 - sum
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		n2.Data[idx] = v
	}
}

// TestSlabRanksMatchOracle steps ranks carved from recycled slabs
// beside oracle ranks and compares every variable and the advection
// spare over the whole ghost box, bit for bit, at start and after every
// step. The cases run small, large, then small again, and every rank
// NaN-fills its whole slab before it releases it: a slab drawn again
// must come back as the same zeros as grid.NewField's, whether it is
// grown (small to large) or longer than the rank needs (large to
// small). The small cases include blocks one cell thick along each
// axis, and some run several substeps.
func TestSlabRanksMatchOracle(t *testing.T) {
	const steps = 5
	// Every variable in VarNames order, then the spare.
	state := func(rk *Rank) []*grid.Field {
		out := make([]*grid.Field, 0, len(VarNames)+1)
		for _, name := range VarNames {
			out = append(out, rk.fields[name])
		}
		return append(out, rk.scratch)
	}
	cases := []struct {
		global grid.Box
		p      [3]int
		sub    int
	}{
		{grid.NewBox(12, 10, 6), [3]int{2, 1, 1}, 1},
		{grid.NewBox(24, 12, 8), [3]int{2, 2, 1}, 3},
		{grid.NewBox(6, 5, 4), [3]int{6, 1, 1}, 2},
		{grid.NewBox(6, 5, 4), [3]int{1, 5, 1}, 1},
		{grid.NewBox(6, 5, 4), [3]int{2, 1, 4}, 2},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v/%v/sub%d", c.global, c.p, c.sub)
		cfg := DefaultConfig(c.global, c.p[0], c.p[1], c.p[2])
		cfg.KernelRate, cfg.SubSteps = 0.8, c.sub
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
			oracle := newOracleRank(s, r)
			// The first mismatch only; every rank keeps stepping so the
			// exchanges stay matched.
			bad := ""
			for step := 0; step <= steps; step++ {
				if step > 0 {
					rk.Step()
					oracle.oracleStep()
				}
				got, want := state(rk), state(oracle)
				for fi, want := range want {
					got := got[fi]
					if got.Name != want.Name && bad == "" {
						bad = fmt.Sprintf("step %d: field %d is named %q, want %q", step, fi, got.Name, want.Name)
					}
					for idx, v := range want.Data {
						if math.Float64bits(got.Data[idx]) != math.Float64bits(v) && bad == "" {
							i, j, k := rk.ghost.Point(idx)
							bad = fmt.Sprintf("step %d: %s(%d,%d,%d) = %v, the oracle has %v", step, want.Name, i, j, k, got.Data[idx], v)
						}
					}
				}
			}
			if bad != "" {
				t.Errorf("%s rank %d: %s", name, r.ID(), bad)
			}
			slab := rk.mem.slab[:cap(rk.mem.slab)]
			for i := range slab {
				slab[i] = math.NaN()
			}
			rk.Release()
		})
	}
}
