package workload

import (
	"errors"
	"fmt"
	"strings"

	"insitu/internal/core"
	"insitu/internal/sim"
)

// Fig. 1's point: ignition kernels live ~10 simulation steps, but
// conventional post-processing sees only every ~400th step, so the
// connectivity indicators (feature overlap between consecutive
// outputs) are lost, and most kernels are never observed at all. The
// concurrent-analysis pipeline runs at every step (or every 10th) and
// keeps them. RunFig1 measures both effects as a function of the
// analysis cadence.

// CadenceRow reports tracking quality at one analysis cadence.
type CadenceRow struct {
	Cadence int
	// KernelsCaptured of KernelsTotal ground-truth ignition events had
	// at least one analysis step inside their lifetime.
	KernelsCaptured int
	KernelsTotal    int
	// MeanMatches is the average number of overlap matches between
	// consecutive analysis outputs (the Fig. 1 connectivity
	// indicator); zero means tracking is impossible.
	MeanMatches float64
	// LongestChain is the longest feature chain followed by greatest-
	// overlap tracking across the sampled outputs.
	LongestChain int
}

// Fig1Result is the full cadence sweep.
type Fig1Result struct {
	Steps          int
	KernelLifetime int
	Threshold      float64
	Rows           []CadenceRow
}

// RunFig1 runs the pipeline for `steps` steps once per cadence, with
// one hybrid feature tracker on the OH field (the ignition-kernel
// marker) due every cadence-th step, and reports the tracker's
// matches and longest track beside the kernels its steps saw.
func RunFig1(simCfg sim.Config, steps int, threshold float64, cadences []int) (*Fig1Result, error) {
	s, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}
	// Ground truth: every kernel born in [0, steps), each met at its
	// birth step.
	var kernels []sim.Kernel
	for step := 0; step < steps; step++ {
		for _, k := range s.ActiveKernels(step) {
			if k.Birth == step {
				kernels = append(kernels, k)
			}
		}
	}

	res := &Fig1Result{Steps: steps, KernelLifetime: sim.KernelLifetime, Threshold: threshold}
	for _, c := range cadences {
		if c < 1 {
			return nil, fmt.Errorf("workload: cadence must be >= 1, got %d", c)
		}
		row := CadenceRow{Cadence: c, KernelsTotal: len(kernels)}
		// Kernel capture: an event is seen if an analysis step falls
		// inside its lifetime. Pipeline step c is the sim's step c-1.
		for _, k := range kernels {
			for st := c - 1; st < steps; st += c {
				if st >= k.Birth && st < k.Birth+sim.KernelLifetime {
					row.KernelsCaptured++
					break
				}
			}
		}
		if row.MeanMatches, row.LongestChain, err = trackAtCadence(simCfg, steps, threshold, c); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// trackAtCadence runs one pipeline with a hybrid tracker due every
// cadence-th step and returns the mean number of overlap matches
// between consecutive results and the longest track of their lineage.
func trackAtCadence(simCfg sim.Config, steps int, threshold float64, cadence int) (float64, int, error) {
	p, err := core.NewPipeline(core.DefaultConfig(simCfg))
	if err != nil {
		return 0, 0, err
	}
	track := &core.TrackingHybrid{Var: "Y_OH", Threshold: threshold, EveryN: cadence}
	if err := p.Register(track); err != nil {
		return 0, 0, err
	}
	rep, err := p.Run(steps)
	if err != nil {
		return 0, 0, err
	}
	if err := errors.Join(rep.Errs...); err != nil {
		return 0, 0, err
	}
	g, err := core.BuildTrackGraph(rep, track, steps)
	if err != nil {
		return 0, 0, err
	}
	total, joins := 0, 0
	for st := 2 * cadence; st <= steps; st += cadence {
		prev := rep.Result(track.Name(), st-cadence).(*core.TrackingStepResult)
		matches, err := core.JoinTracking(prev, rep.Result(track.Name(), st).(*core.TrackingStepResult))
		if err != nil {
			return 0, 0, err
		}
		total += len(matches)
		joins++
	}
	mean := 0.0
	if joins > 0 {
		mean = float64(total) / float64(joins)
	}
	return mean, g.Summarize(false).LongestTrack, nil
}

// Format renders the cadence sweep.
func (r *Fig1Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel lifetime: %d steps, run length: %d steps, OH threshold: %.3g\n\n",
		r.KernelLifetime, r.Steps, r.Threshold)
	fmt.Fprintf(&sb, "%10s %22s %18s %15s\n", "cadence", "kernels captured", "mean matches", "longest chain")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%10d %14d / %5d %18.2f %15d\n",
			row.Cadence, row.KernelsCaptured, row.KernelsTotal, row.MeanMatches, row.LongestChain)
	}
	return sb.String()
}
