// Package sim implements an S3D proxy: a massively parallel structured
// grid solver producing the multi-variable turbulent-combustion fields
// the analysis pipeline consumes. It is not a DNS code; it is the
// closest synthetic equivalent that exercises the same code paths
// (per-rank blocks, ghost exchange, 14 double-precision variables, and
// — crucially — intermittent ignition kernels at the base of a lifted
// jet flame whose lifetime of ~10 steps motivates the paper's
// high-frequency concurrent analysis).
//
// The model: a prescribed incompressible jet velocity field with
// superposed vortical perturbations advects temperature and species
// mass fractions; a single-step Arrhenius H2 oxidation reaction
// releases heat and produces H2O with OH as a fast intermediate; and a
// deterministic Poisson process injects short-lived ignition kernels
// in the flame-base region. All state evolves identically for any
// domain decomposition, so analyses can be validated against serial
// runs bit-for-bit.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/grid"
)

// VarNames lists the 14 simulation variables, matching the paper's
// runs (temperature, velocity, pressure, and the species of a hydrogen
// mechanism).
var VarNames = []string{
	"T", "u", "v", "w", "P",
	"Y_H2", "Y_O2", "Y_H2O", "Y_OH", "Y_HO2", "Y_H2O2", "Y_H", "Y_O", "Y_N2",
}

// advected lists the variables advanced by advection-diffusion-reaction;
// velocity and pressure are prescribed analytically.
var advected = []string{"T", "Y_H2", "Y_O2", "Y_H2O", "Y_OH", "Y_HO2", "Y_H2O2", "Y_H", "Y_O"}

// Config holds what a run varies: the grid, its decomposition, the
// chemistry cost per step and the ignition-kernel rate. The physics is
// fixed (see physics).
type Config struct {
	Global     grid.Box // global grid
	Px, Py, Pz int      // domain decomposition

	// SubSteps subdivides each Step into explicit sub-iterations of
	// dt/SubSteps (default 1). S3D advances with many small RK
	// substeps dominated by chemistry; raising SubSteps reproduces
	// that per-point cost so the in-situ-to-simulation time ratios of
	// the paper's Table II keep their shape.
	SubSteps int

	// KernelRate is the expected number of ignition kernels born per
	// step.
	KernelRate float64

	Seed int64
}

// KernelLifetime is the number of steps an ignition kernel persists.
const KernelLifetime = 10

// physics holds the proxy's physical and numerical parameters, tuned
// for laptop-scale grids: a lifted jet with visible flame-base
// intermittency. They are run-time values rather than untyped
// constants so that expressions over them (jetVelocity-coflowV, ...)
// round as they are written. Each Sim keeps its own copy.
type physics struct {
	dt          float64 // time step (grid spacing is 1)
	diffusivity float64 // scalar diffusivity

	// Jet parameters: the jet flows in +x, centered in (y,z).
	jetVelocity float64 // centerline velocity
	coflowV     float64 // coflow velocity
	jetRadius   float64 // jet half-width in grid points (a sixth of the y extent)
	coflowT     float64 // heated-coflow temperature
	fuelT       float64 // cold fuel temperature

	// Turbulence: amplitude and number of vortical modes.
	turbAmp   float64
	turbModes int

	// Single-step H2 chemistry.
	reactA      float64 // pre-exponential factor
	reactTa     float64 // activation temperature
	heatRelease float64 // temperature rise per unit reaction

	// Ignition kernels.
	kernelAmp    float64 // peak temperature bump
	kernelRadius float64 // gaussian radius in grid points
}

// proxyPhysics is every run's physics but the grid-derived jetRadius.
// Upwind stability needs dt*(|u|+|v|+|w|) + 6 D dt <= 1 at any
// SubSteps >= 1, where the turbulence adds at most turbAmp per
// component; TestPhysicsIsStable holds these values to it.
var proxyPhysics = physics{
	dt:           0.2,
	diffusivity:  0.08,
	jetVelocity:  1.2,
	coflowV:      0.3,
	coflowT:      0.65,
	fuelT:        0.3,
	turbAmp:      0.35,
	turbModes:    5,
	reactA:       4.0,
	reactTa:      6.0,
	heatRelease:  2.2,
	kernelAmp:    1.1,
	kernelRadius: 2.5,
}

// DefaultConfig returns a run of the given grid and decomposition with
// the default kernel rate and seed.
func DefaultConfig(global grid.Box, px, py, pz int) Config {
	return Config{
		Global:     global,
		Px:         px,
		Py:         py,
		Pz:         pz,
		KernelRate: 0.4,
		Seed:       1,
	}
}

// Sim is the shared, immutable description of one simulation run.
type Sim struct {
	cfg   Config
	phys  physics
	dc    *grid.Decomp
	modes []turbMode
}

// turbMode is one vortical perturbation mode.
type turbMode struct {
	kx, ky, kz float64
	ax, ay, az float64
	phase      float64
	omega      float64
}

// New validates the configuration and precomputes the turbulence
// modes.
func New(cfg Config) (*Sim, error) {
	if cfg.SubSteps < 0 {
		return nil, fmt.Errorf("sim: SubSteps must be >= 0 (0 means 1)")
	}
	dc, err := grid.NewDecomp(cfg.Global, cfg.Px, cfg.Py, cfg.Pz)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, phys: proxyPhysics, dc: dc}
	d := cfg.Global.Dims()
	s.phys.jetRadius = float64(d[1]) / 6
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Per-mode amplitudes are bounded to [-1,1] and normalized by the
	// mode count at evaluation, so the total turbulent velocity never
	// exceeds turbAmp per component — the bound the stability
	// condition assumes.
	for m := 0; m < s.phys.turbModes; m++ {
		k := [3]float64{
			2 * math.Pi * float64(1+rng.Intn(3)) / float64(d[0]),
			2 * math.Pi * float64(1+rng.Intn(3)) / float64(max(d[1], 2)),
			2 * math.Pi * float64(1+rng.Intn(3)) / float64(max(d[2], 2)),
		}
		s.modes = append(s.modes, turbMode{
			kx: k[0], ky: k[1], kz: k[2],
			ax:    2*rng.Float64() - 1,
			ay:    2*rng.Float64() - 1,
			az:    2*rng.Float64() - 1,
			phase: rng.Float64() * 2 * math.Pi,
			omega: 0.02 + 0.05*rng.Float64(),
		})
	}
	return s, nil
}

// Config returns the run configuration.
func (s *Sim) Config() Config { return s.cfg }

// Decomp returns the domain decomposition.
func (s *Sim) Decomp() *grid.Decomp { return s.dc }

// Ranks returns the number of simulation ranks.
func (s *Sim) Ranks() int { return s.dc.Ranks() }

// Kernel is one ignition event: a gaussian temperature/radical bump
// injected at the flame base for Lifetime steps.
type Kernel struct {
	Birth   int
	X, Y, Z float64
	Amp     float64
	Radius  float64
}

// appendKernelsBorn deterministically generates the kernels born at a
// step (Poisson arrivals; positions in the flame-base region) and
// appends them to out. The stream depends only on the run seed and the
// step: rng is reseeded on entry, so any generator yields the same
// kernels.
func (s *Sim) appendKernelsBorn(out []Kernel, rng *rand.Rand, step int) []Kernel {
	rng.Seed(s.cfg.Seed*1000003 + int64(step))
	// Knuth Poisson sampler.
	l := math.Exp(-s.cfg.KernelRate)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			break
		}
		k++
	}
	d := s.cfg.Global.Dims()
	for i := 0; i < k; i++ {
		out = append(out, Kernel{
			Birth: step,
			// Flame base: 15-30% downstream.
			X: (0.15 + 0.15*rng.Float64()) * float64(d[0]),
			// Within the jet shear layer.
			Y:      float64(d[1])/2 + (rng.Float64()-0.5)*2*s.phys.jetRadius,
			Z:      float64(d[2])/2 + (rng.Float64()-0.5)*2*s.phys.jetRadius,
			Amp:    s.phys.kernelAmp * (0.7 + 0.6*rng.Float64()),
			Radius: s.phys.kernelRadius * (0.8 + 0.4*rng.Float64()),
		})
	}
	return out
}

// ActiveKernels returns all kernels alive at a step.
func (s *Sim) ActiveKernels(step int) []Kernel {
	return s.appendActiveKernels(nil, rand.New(rand.NewSource(0)), step)
}

// appendActiveKernels appends every kernel alive at a step to out,
// drawing them from rng (reseeded per birth step). A rank passes its
// own generator and buffer, so a step builds neither.
func (s *Sim) appendActiveKernels(out []Kernel, rng *rand.Rand, step int) []Kernel {
	for b := max(step-KernelLifetime+1, 0); b <= step; b++ {
		out = s.appendKernelsBorn(out, rng, b)
	}
	return out
}

// inflowJet returns the inlet (x=0) jet weight at (y,z): 1 in the cold
// fuel jet's core, 0 in the heated air coflow.
func (s *Sim) inflowJet(y, z float64) float64 {
	d := s.cfg.Global.Dims()
	cy, cz := float64(d[1])/2, float64(d[2])/2
	r2 := ((y-cy)*(y-cy) + (z-cz)*(z-cz)) / (s.phys.jetRadius * s.phys.jetRadius)
	return math.Exp(-r2)
}

// inflow returns the inlet value of one advected variable where the
// jet weight is jet.
func (s *Sim) inflow(name string, jet float64) float64 {
	switch name {
	case "T":
		return s.phys.fuelT*jet + s.phys.coflowT*(1-jet)
	case "Y_H2":
		return 0.9 * jet
	case "Y_O2":
		return 0.22 * (1 - jet)
	case "Y_H2O":
		return 0.005
	}
	return 0 // the radicals enter at zero
}
