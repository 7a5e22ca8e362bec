package workload

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"insitu/internal/core"
	"insitu/internal/render"
	"insitu/internal/sim"
)

// Fig. 2's point: an in-transit render of the temperature field
// down-sampled 8x in situ keeps the flame recognizable for monitoring
// while moving a fraction of a percent of the data. RunFig2 renders
// one step through the in-situ route and through one hybrid route per
// down-sampling factor of the same pipeline, and compares the frames.

// Fig2Row is one hybrid route's frame, its render.MeanAbsDiff against
// the in-situ frame, and the bytes the route moved for it.
type Fig2Row struct {
	Factor      int
	Frame       *render.Image
	MeanAbsDiff float64
	MoveBytes   int64
}

// Fig2Result holds the in-situ frame and one row per factor.
type Fig2Result struct {
	Steps    int
	RawBytes int64 // the rendered field at full resolution
	InSitu   *render.Image
	Rows     []Fig2Row
}

// fig2Sink keeps each frame variable's first camera. Core recycles the
// pooled framebuffers once the sink returns, so it copies the pixels
// into images of its own. It files nothing, so its digests are empty.
type fig2Sink struct {
	mu     sync.Mutex
	frames map[string]*render.Image
}

func (s *fig2Sink) PutFrames(variable string, _ int, frames []render.Frame) ([]string, error) {
	src := frames[0].Img
	img := render.NewImage(src.W, src.H)
	copy(img.Pix, src.Pix)
	s.mu.Lock()
	s.frames[variable] = img
	s.mu.Unlock()
	return make([]string, len(frames)), nil
}

// RunFig2 runs the simulation for `steps` steps and renders the last
// one at width x height: in situ at full resolution, and in transit
// from blocks down-sampled by each factor.
func RunFig2(simCfg sim.Config, steps, width, height int, factors []int) (*Fig2Result, error) {
	sink := &fig2Sink{frames: map[string]*render.Image{}}
	cfg := core.DefaultConfig(simCfg)
	cfg.Store = sink
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	insitu := &core.VizInSitu{Var: "T", Width: width, Height: height, EveryN: steps}
	errs := []error{p.Register(insitu)}
	hybrids := make([]*core.VizHybrid, len(factors))
	for i, factor := range factors {
		hybrids[i] = &core.VizHybrid{Var: "T", Factor: factor, Width: width, Height: height, EveryN: steps, Tag: fmt.Sprintf("%dx", factor)}
		errs = append(errs, p.Register(hybrids[i]))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rep, err := p.Run(steps)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(rep.Errs...); err != nil {
		return nil, err
	}
	res := &Fig2Result{Steps: steps, RawBytes: int64(8 * simCfg.Global.Size()), InSitu: sink.frames[insitu.FrameVar()]}
	for i, h := range hybrids {
		row := Fig2Row{Factor: factors[i], Frame: sink.frames[h.FrameVar()], MoveBytes: rep.Metrics.Total(h.Name()).MoveBytes}
		if res.InSitu == nil || row.Frame == nil {
			return nil, fmt.Errorf("workload: step %d rendered no frame for %s", steps, h.Name())
		}
		if row.MeanAbsDiff, err = render.MeanAbsDiff(res.InSitu, row.Frame); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the comparison.
func (r *Fig2Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "frame of step %d, %dx%d; the field is %d B at full resolution\n\n", r.Steps, r.InSitu.W, r.InSitu.H, r.RawBytes)
	fmt.Fprintf(&sb, "%8s %14s %10s %24s\n", "factor", "moved (B)", "reduction", "mean abs diff vs in-situ")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%7dx %14d %9.0fx %24.4f\n", row.Factor, row.MoveBytes, float64(r.RawBytes)/float64(row.MoveBytes), row.MeanAbsDiff)
	}
	return sb.String()
}
