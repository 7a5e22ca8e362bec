package workload

import (
	"fmt"
	"strings"

	"insitu/internal/comm"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
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

// RunFig1 runs the proxy simulation for `steps` steps, segments the
// OH field (the ignition-kernel marker) at every step, and evaluates
// tracking at each cadence.
func RunFig1(simCfg sim.Config, steps int, threshold float64, cadences []int) (*Fig1Result, error) {
	s, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}
	// Segment every step. The simulation runs decomposed; fields are
	// stitched to the global domain for segmentation (bitwise equal to
	// a serial run by the decomposition-independence property).
	segs := make([]*mergetree.Segmentation, steps)
	fields := make([]*grid.Field, steps)
	for i := range fields {
		fields[i] = grid.NewField("Y_OH", simCfg.Global)
	}
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	var rankErr error
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			<-gate
			rankErr = err
			gate <- struct{}{}
			return
		}
		for step := 0; step < steps; step++ {
			rk.Step()
			f := rk.Field("Y_OH")
			<-gate
			fields[step].Paste(f)
			gate <- struct{}{}
			r.Barrier()
		}
	})
	if rankErr != nil {
		return nil, rankErr
	}
	for step := 0; step < steps; step++ {
		segs[step] = mergetree.SegmentField(fields[step], simCfg.Global, threshold)
	}

	// Ground truth: every kernel born in [0, steps).
	var kernels []sim.Kernel
	seen := map[sim.Kernel]bool{}
	for step := 0; step < steps; step++ {
		for _, k := range s.ActiveKernels(step) {
			if !seen[k] {
				seen[k] = true
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
		// Which analysis steps run at this cadence? Steps c-1, 2c-1...
		var sampled []int
		for st := c - 1; st < steps; st += c {
			sampled = append(sampled, st)
		}
		// Kernel capture: an event is seen if any sampled step falls
		// inside its lifetime.
		for _, k := range kernels {
			for _, st := range sampled {
				if st >= k.Birth && st < k.Birth+sim.KernelLifetime {
					row.KernelsCaptured++
					break
				}
			}
		}
		// Connectivity between consecutive sampled outputs.
		var sub []*mergetree.Segmentation
		for _, st := range sampled {
			sub = append(sub, segs[st])
		}
		total := 0
		for i := 1; i < len(sub); i++ {
			total += len(mergetree.Track(sub[i-1], sub[i]))
		}
		if len(sub) > 1 {
			row.MeanMatches = float64(total) / float64(len(sub)-1)
		}
		// Longest chain from any feature of any output (features need a
		// few steps to grow past the threshold, so chains may start
		// mid-run).
		for s0 := 0; s0 < len(sub); s0++ {
			if len(sub)-s0 <= row.LongestChain {
				break // no remaining window can beat the best chain
			}
			labels := map[int64]bool{}
			for _, l := range sub[s0].Labels {
				labels[l] = true
			}
			for l := range labels {
				if n := len(mergetree.TrackChain(sub[s0:], l)); n > row.LongestChain {
					row.LongestChain = n
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
