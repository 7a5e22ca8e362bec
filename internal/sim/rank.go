package sim

import (
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/bufpool"
	"insitu/internal/comm"
	"insitu/internal/grid"
)

// Rank is the per-process simulation state: the rank's owned block
// plus a one-point ghost layer for every variable. Scalars advance by
// first-order upwind advection, explicit diffusion and pointwise
// reaction, so the evolution is bitwise independent of the domain
// decomposition — a property the analysis validation tests rely on.
type Rank struct {
	sim   *Sim
	r     *comm.Rank
	owned grid.Box // block owned by this rank
	ghost grid.Box // owned grown by one in every direction

	// Storage over the ghost box, all carved from mem.slab: every
	// variable, and advanceScalars' one spare. One offset indexes them all.
	fields  map[string]*grid.Field
	scratch *grid.Field
	step    int
	mem     *rankMem
}

// rankMem is what a Rank draws at NewRank and hands back at Release:
// the slab its fields are carved from, and the ignition-kernel
// generator and its output buffer (the rank's, not the Sim's: every
// rank goroutine shares one Sim).
type rankMem struct {
	slab    []float64
	rng     *rand.Rand
	kernels []Kernel
}

// rankMems holds released ranks' storage, at most as many as ranks ever
// lived at once in the process.
var rankMems bufpool.List[*rankMem]

// NewRank creates the state for comm rank r. The comm world size must
// equal the decomposition's rank count. Its slab is a released rank's,
// grown when too short and cleared, or a new one.
func (s *Sim) NewRank(r *comm.Rank) (*Rank, error) {
	if r.Size() != s.dc.Ranks() {
		return nil, fmt.Errorf("sim: world size %d != decomposition ranks %d", r.Size(), s.dc.Ranks())
	}
	m := rankMems.Get()
	if m == nil {
		m = &rankMem{rng: rand.New(rand.NewSource(0))}
	}
	owned := s.dc.Block(r.ID())
	rk := &Rank{sim: s, r: r, owned: owned, ghost: owned.Grow(1), mem: m, fields: make(map[string]*grid.Field, len(VarNames))}
	n, all := rk.ghost.Size(), len(VarNames)+1
	if cap(m.slab) >= all*n {
		m.slab = m.slab[:all*n]
		clear(m.slab)
	} else {
		m.slab = make([]float64, all*n)
	}
	// Full slice expressions: no field can grow into the next.
	for i, name := range VarNames {
		rk.fields[name] = &grid.Field{Name: name, Box: rk.ghost, Data: m.slab[i*n : (i+1)*n : (i+1)*n]}
	}
	rk.scratch = &grid.Field{Box: rk.ghost, Data: m.slab[(all-1)*n : all*n : all*n]}
	rk.initialize()
	return rk, nil
}

// Release hands the rank's storage back for a later NewRank; the rank
// must not be used afterwards. Releasing twice is a no-op.
func (rk *Rank) Release() {
	if rk.mem != nil {
		rankMems.Put(rk.mem)
	}
	rk.mem, rk.fields, rk.scratch = nil, nil, nil
}

// OwnedBox returns the rank's block (without ghosts).
func (rk *Rank) OwnedBox() grid.Box { return rk.owned }

// Field returns a copy of the named variable restricted to the owned
// block.
func (rk *Rank) Field(name string) *grid.Field {
	f, ok := rk.fields[name]
	if !ok {
		return nil
	}
	return f.Extract(rk.owned)
}

// GhostedField returns the live storage of the named variable over the
// ghost box. In-situ analyses access simulation state through this,
// "sharing the native simulation data structures" as in the paper;
// callers must not retain it across steps. Its storage dies at Release,
// after which a later NewRank may overwrite it.
func (rk *Rank) GhostedField(name string) *grid.Field { return rk.fields[name] }

// initialize seeds every column with its inflow profile, so the run
// starts from a smooth lifted-jet state.
func (rk *Rank) initialize() {
	b := rk.ghost
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			jet := rk.sim.inflowJet(float64(j), float64(k))
			for _, name := range advected {
				f, v := rk.fields[name], rk.sim.inflow(name, jet)
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					f.Set(i, j, k, v)
				}
			}
		}
	}
	rk.fillVelocity(0)
	rk.updateN2()
}

// fillVelocity evaluates the prescribed velocity and pressure over the
// ghost box at simulation time t: the jet profile, which depends only
// on (y,z), plus the vortical modes.
func (rk *Rank) fillVelocity(t float64) {
	s, b := rk.sim, rk.ghost
	u, v, w, p := rk.fields["u"].Data, rk.fields["v"].Data, rk.fields["w"].Data, rk.fields["P"].Data
	amp := s.phys.turbAmp / float64(len(s.modes))
	idx := 0
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		z := float64(k)
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			y := float64(j)
			jet := s.phys.coflowV + (s.phys.jetVelocity-s.phys.coflowV)*s.inflowJet(y, z)
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				x := float64(i)
				uu, vv, ww := jet, 0.0, 0.0
				for _, m := range s.modes {
					ph := m.kx*x + m.ky*y + m.kz*z + m.phase + m.omega*t
					sin, cos := math.Sincos(ph)
					uu += amp * m.ax * sin
					vv += amp * m.ay * math.Sin(ph+1.0)
					ww += amp * m.az * cos
				}
				u[idx], v[idx], w[idx] = uu, vv, ww
				p[idx] = 1 - 0.5*(uu*uu+vv*vv+ww*ww)
				idx++
			}
		}
	}
}

// ghost-exchange message tags: tag = varIdx*8 + axis*2 + dirBit.
func exchangeTag(varIdx, axis, dir int) int {
	bit := 0
	if dir > 0 {
		bit = 1
	}
	return varIdx*8 + axis*2 + bit
}

// haloSlabs recycles the face slabs fullExchange sends: the receiver
// pastes a slab into its ghost layer and hands it back, so once the
// list holds slabs of a face's size an exchange allocates nothing.
var haloSlabs bufpool.List[*grid.Field]

// fullExchange refreshes the complete one-point ghost shell of every
// advected variable: faces, edges and corners. It proceeds axis by
// axis, with each phase's slabs extended into the ghost range of the
// axes already exchanged, so corner values propagate correctly (the
// standard three-phase halo exchange). Domain-boundary ghost planes
// are filled per phase with the physical boundary conditions (inflow
// profile at x-low, zero gradient elsewhere).
//
// After fullExchange, the ghosted fields of all ranks agree exactly
// with the corresponding interiors of a serial run — the property the
// in-situ analyses (merge-tree boundary augmentation, face-adjacent
// trilinear sampling) depend on.
func (rk *Rank) fullExchange() {
	for vi, name := range advected {
		f := rk.fields[name]
		for axis := 0; axis < 3; axis++ {
			// Slab extended in already-exchanged axes.
			ext := rk.owned
			for a2 := 0; a2 < axis; a2++ {
				ext.Lo[a2]--
				ext.Hi[a2]++
			}
			for _, dir := range []int{-1, 1} {
				nb := rk.sim.dc.FaceNeighbor(rk.r.ID(), axis, dir)
				if nb < 0 {
					continue
				}
				face := ext
				if dir < 0 {
					face.Hi[axis] = face.Lo[axis] + 1
				} else {
					face.Lo[axis] = face.Hi[axis] - 1
				}
				rk.r.Send(nb, exchangeTag(vi, axis, dir), f.ExtractInto(face, haloSlabs.Get()))
			}
			for _, dir := range []int{-1, 1} {
				nb := rk.sim.dc.FaceNeighbor(rk.r.ID(), axis, dir)
				if nb < 0 {
					continue
				}
				data, _ := rk.r.Recv(nb, exchangeTag(vi, axis, -dir))
				slab := data.(*grid.Field)
				f.Paste(slab)
				haloSlabs.Put(slab)
			}
			rk.fillBoundaryPlane(name, axis)
		}
	}
}

// fillBoundaryPlane applies boundary conditions on the ghost planes of
// one axis (extended into the ghost range of lower axes), for points
// outside the global domain in that axis. It walks each plane row by
// row at the ghost box's strides; a copied value's source, clamped into
// the domain along the plane's axis, never lies in the plane.
func (rk *Rank) fillBoundaryPlane(name string, axis int) {
	g, gb := rk.sim.cfg.Global, rk.ghost
	f, st := rk.fields[name], gb.Strides()
	// clamp maps coordinate v on axis a to its source: into the domain,
	// then into the ghost box — for lower axes the clamped source may
	// be a ghost value exchanged in an earlier phase.
	clamp := func(v, a int) int { return clampI(clampI(v, g.Lo[a], g.Hi[a]-1), gb.Lo[a], gb.Hi[a]-1) }
	for _, dir := range []int{-1, 1} {
		// Plane outside the domain?
		var plane grid.Box
		if dir < 0 {
			if rk.owned.Lo[axis] != g.Lo[axis] {
				continue
			}
			plane = rk.ghost
			plane.Hi[axis] = plane.Lo[axis] + 1
		} else {
			if rk.owned.Hi[axis] != g.Hi[axis] {
				continue
			}
			plane = rk.ghost
			plane.Lo[axis] = plane.Hi[axis] - 1
		}
		// Restrict non-axis dims: axes already exchanged keep their
		// ghost extent, later axes stay within owned.
		for a2 := 0; a2 < 3; a2++ {
			if a2 == axis {
				continue
			}
			if a2 > axis {
				plane.Lo[a2] = rk.owned.Lo[a2]
				plane.Hi[a2] = rk.owned.Hi[a2]
			}
		}
		inflow := axis == 0 && dir < 0
		n := plane.Hi[0] - plane.Lo[0]
		for k := plane.Lo[2]; k < plane.Hi[2]; k++ {
			row := gb.Index(plane.Lo[0], plane.Lo[1], k)
			for j := plane.Lo[1]; j < plane.Hi[1]; j, row = j+1, row+st[1] {
				dst := f.Data[row : row+n]
				if inflow {
					v := rk.sim.inflow(name, rk.sim.inflowJet(float64(j), float64(k)))
					for i := range dst {
						dst[i] = v
					}
					continue
				}
				src := gb.Index(gb.Lo[0], clamp(j, 1), clamp(k, 2)) - gb.Lo[0]
				for i := range dst {
					dst[i] = f.Data[src+clamp(plane.Lo[0]+i, 0)]
				}
			}
		}
	}
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// advanceScalars applies one explicit step of upwind advection and
// central diffusion to every advected variable on the owned block,
// with time step dt. A variable's update reads only its own old values
// and the velocity, so it is written into the one scratch and swapped
// in, and the old field is the next variable's scratch. Only owned
// cells are written: until the step's fullExchange rewrites it, a fresh
// field's ghost shell holds another variable's stale values. Each row
// is walked from one offset, with the ghost box's strides to the
// neighbours.
func (rk *Rank) advanceScalars(dt float64) {
	ph, o, st := rk.sim.phys, rk.owned, rk.ghost.Strides()
	u, v, w := rk.fields["u"].Data, rk.fields["v"].Data, rk.fields["w"].Data
	for _, name := range advected {
		f, out := rk.fields[name].Data, rk.scratch.Data
		for k := o.Lo[2]; k < o.Hi[2]; k++ {
			for j := o.Lo[1]; j < o.Hi[1]; j++ {
				row := rk.ghost.Index(o.Lo[0], j, k)
				for idx := row; idx < row+o.Hi[0]-o.Lo[0]; idx++ {
					c := f[idx]
					xm, xp := f[idx-1], f[idx+1]
					ym, yp := f[idx-st[1]], f[idx+st[1]]
					zm, zp := f[idx-st[2]], f[idx+st[2]]

					uu, vv, ww := u[idx], v[idx], w[idx]
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
					out[idx] = c + dt*(-adv+ph.diffusivity*lap)
				}
			}
		}
		rk.scratch.Name = name
		rk.fields[name], rk.scratch = rk.scratch, rk.fields[name]
	}
}

// react applies the single-step H2 chemistry pointwise on the owned
// block with time step dt: H2 + 8 O2 -> 9 H2O by mass, with OH and
// minor radicals as fast intermediates relaxing toward the reaction
// rate.
func (rk *Rank) react(dt float64) {
	ph, o, fs := rk.sim.phys, rk.owned, rk.fields
	T, h2, o2, h2o := fs["T"].Data, fs["Y_H2"].Data, fs["Y_O2"].Data, fs["Y_H2O"].Data
	oh, ho2, h2o2, hr, or := fs["Y_OH"].Data, fs["Y_HO2"].Data, fs["Y_H2O2"].Data, fs["Y_H"].Data, fs["Y_O"].Data
	for k := o.Lo[2]; k < o.Hi[2]; k++ {
		for j := o.Lo[1]; j < o.Hi[1]; j++ {
			row := rk.ghost.Index(o.Lo[0], j, k)
			for idx := row; idx < row+o.Hi[0]-o.Lo[0]; idx++ {
				t := T[idx]
				yh2, yo2 := h2[idx], o2[idx]
				rate := ph.reactA * yh2 * yo2 * math.Exp(-ph.reactTa/math.Max(t, 0.05))
				c := rate * dt
				if c > yh2 {
					c = yh2
				}
				if 8*c > yo2 {
					c = yo2 / 8
				}
				h2[idx] = yh2 - c
				o2[idx] = yo2 - 8*c
				h2o[idx] = h2o[idx] + 9*c
				T[idx] = t + ph.heatRelease*c
				oh[idx] = oh[idx] + 0.30*c - 0.5*dt*oh[idx]
				ho2[idx] = ho2[idx] + 0.10*c - 0.8*dt*ho2[idx]
				h2o2[idx] = h2o2[idx] + 0.05*c - 0.3*dt*h2o2[idx]
				hr[idx] = hr[idx] + 0.08*c - 1.0*dt*hr[idx]
				or[idx] = or[idx] + 0.06*c - 1.0*dt*or[idx]
			}
		}
	}
}

// injectKernels adds the active ignition kernels' temperature and
// radical sources on the owned block.
func (rk *Rank) injectKernels(step int) {
	m := rk.mem
	m.kernels = rk.sim.appendActiveKernels(m.kernels[:0], m.rng, step)
	for _, kn := range m.kernels {
		rk.injectOne(kn, step)
	}
}

// injectOne applies a single kernel's source at the given step.
func (rk *Rank) injectOne(kn Kernel, step int) {
	ph := rk.sim.phys
	T := rk.fields["T"]
	oh := rk.fields["Y_OH"]
	age := step - kn.Birth
	shape := math.Sin(math.Pi * (float64(age) + 0.5) / KernelLifetime)
	// Only touch points within 3 radii.
	r3 := 3 * kn.Radius
	lo := [3]int{int(kn.X - r3), int(kn.Y - r3), int(kn.Z - r3)}
	hi := [3]int{int(kn.X+r3) + 1, int(kn.Y+r3) + 1, int(kn.Z+r3) + 1}
	box := grid.Box{Lo: lo, Hi: hi}.Intersect(rk.owned)
	if box.Empty() {
		return
	}
	s2 := 2 * kn.Radius * kn.Radius
	// The kernel relaxes the local state toward an ignition target
	// (hot spot with elevated radicals) rather than adding heat
	// unboundedly: overlapping kernels then saturate instead of
	// stacking, keeping temperatures physical.
	tTarget := ph.coflowT + kn.Amp
	const relaxRate = 2.0
	for k := box.Lo[2]; k < box.Hi[2]; k++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			for i := box.Lo[0]; i < box.Hi[0]; i++ {
				dx := float64(i) - kn.X
				dy := float64(j) - kn.Y
				dz := float64(k) - kn.Z
				g := math.Exp(-(dx*dx + dy*dy + dz*dz) / s2)
				r := relaxRate * shape * g * ph.dt
				if r > 1 {
					r = 1
				}
				t0 := T.At(i, j, k)
				if t0 < tTarget {
					T.Set(i, j, k, t0+r*(tTarget-t0))
				}
				y0 := oh.At(i, j, k)
				if y0 < 0.2 {
					oh.Set(i, j, k, y0+r*(0.2-y0))
				}
			}
		}
	}
}

// updateN2 clamps every species mass fraction to [0,1] and closes the
// balance: Y_N2 = 1 - sum of the others, clamped to [0,1].
func (rk *Rank) updateN2() {
	var species [8][]float64
	for i, name := range advected[1:] { // every species but Y_N2
		species[i] = rk.fields[name].Data
	}
	n2 := rk.fields["Y_N2"].Data
	for idx := range n2 {
		sum := 0.0
		for _, sp := range species {
			y := sp[idx]
			if y < 0 {
				y = 0
				sp[idx] = y
			} else if y > 1 {
				y = 1
				sp[idx] = y
			}
			sum += y
		}
		v := 1 - sum
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		n2[idx] = v
	}
}

// Step advances the rank's state by one time step. All ranks of the
// world must call Step collectively. On entry the ghost shell is
// consistent (established by initialization and by the previous
// step's trailing exchange); on exit it is consistent again, so
// in-situ analyses may read the ghosted fields directly. In between,
// nothing reads the ghost shells advanceScalars leaves stale: react and
// injectKernels touch owned cells only.
func (rk *Rank) Step() {
	cfg := rk.sim.cfg
	sub := cfg.SubSteps
	if sub == 0 {
		sub = 1
	}
	dtSub := rk.sim.phys.dt / float64(sub)
	for s := 0; s < sub; s++ {
		t := (float64(rk.step) + float64(s)/float64(sub)) * rk.sim.phys.dt
		rk.fillVelocity(t)
		rk.advanceScalars(dtSub)
		rk.react(dtSub)
		if s == sub-1 {
			rk.injectKernels(rk.step)
		}
		// Refresh the ghost shell after every substep so the next
		// substep's stencils (and, after the last one, the in-situ
		// analyses) see a consistent ghosted state.
		rk.fullExchange()
	}
	// Y_N2 is derived pointwise from the other species, so computing
	// it after the exchange keeps the whole ghosted state consistent.
	rk.updateN2()
	rk.step++
}

// RunSteps advances n steps.
func (rk *Rank) RunSteps(n int) {
	for i := 0; i < n; i++ {
		rk.Step()
	}
}

// RunAll launches one goroutine per rank of the decomposition, calls
// fn on each, and returns the first error. It is the convenience
// entry point for drivers that do not need the full core.Pipeline.
// Each rank is released when fn returns.
func RunAll(s *Sim, fn func(rk *Rank) error) error {
	errs := make([]error, s.Ranks())
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			errs[r.ID()] = err
			return
		}
		defer rk.Release()
		errs[r.ID()] = fn(rk)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm returns the rank's communicator handle.
func (rk *Rank) Comm() *comm.Rank { return rk.r }
