package core

import (
	"fmt"

	"insitu/internal/grid"
	"insitu/internal/render"
)

// VizInSitu is the fully in-situ volume renderer: every rank
// ray-casts its full-resolution block on the shared compute resources,
// partial images are gathered to rank 0 and composited in visibility
// order. The result (on rank 0) is the full-quality frame.
type VizInSitu struct {
	Var    string // scalar to render (default "T")
	EveryN int
	Width  int
	Height int
	// Tag distinguishes multiple simultaneous instances ("multiple
	// instances of each visualization mode can be dynamically created
	// ... enabling scientists to explore different aspects ... in
	// linked-views"); it is appended to the analysis name.
	Tag string
	// Cameras renders the step from an orbit of view directions
	// (render.OrbitDirs) instead of the single render.DefaultDir — the
	// Cinema-style image database's camera axis. 0 or 1 renders the one
	// default frame.
	Cameras int
}

// vizTF is the transfer function of every frame but an AutoRange
// hybrid route's: a fixed window covering the proxy's temperature
// range. It must be identical on every rank (a per-rank range would
// break compositing); a TransferFunc is immutable, so all routes share
// this one.
var vizTF = render.HotMetal(0.2, 2.0)

// vizStep is the ray-marching step, in grid points (in down-sampled
// index space for the hybrid route).
const vizStep = 0.5

// NewVizInSitu returns an in-situ renderer of the temperature field.
func NewVizInSitu(w, h int) *VizInSitu {
	return &VizInSitu{Var: "T", Width: w, Height: h}
}

// Name implements Analysis.
func (v *VizInSitu) Name() string {
	if v.Tag != "" {
		return "in-situ visualization [" + v.Tag + "]"
	}
	return "in-situ visualization"
}

// Every implements Analysis.
func (v *VizInSitu) Every() int { return v.EveryN }

// FrameVar implements FrameAnalysis: the store variable in-situ frames
// are filed under.
func (v *VizInSitu) FrameVar() string {
	name := v.Var
	if name == "" {
		name = "T"
	}
	name += ".insitu"
	if v.Tag != "" {
		name += "." + v.Tag
	}
	return name
}

// RunInSitu implements InSituAnalysis: render the local block, gather,
// composite on rank 0, once per camera; rank 0 returns the
// *render.FrameSet.
func (v *VizInSitu) RunInSitu(ctx *Ctx) (any, error) {
	name := v.Var
	if name == "" {
		name = "T"
	}
	f := ctx.Sim.GhostedField(name)
	if f == nil {
		return nil, fmt.Errorf("viz: unknown variable %q", name)
	}
	fs := &render.FrameSet{}
	for i, dir := range render.OrbitDirs(v.Cameras) {
		img, err := v.renderOne(ctx, f, dir)
		if err != nil {
			for _, fr := range fs.Frames {
				render.PutImage(fr.Img)
			}
			return nil, err
		}
		if ctx.Comm.ID() == 0 {
			fs.Frames = append(fs.Frames, render.Frame{Cam: render.CameraName(i), Img: img})
		}
	}
	if ctx.Comm.ID() != 0 {
		return nil, nil
	}
	return fs, nil
}

// renderOne renders the step from one view direction: local block
// ray-cast, gather, front-to-back composite on rank 0. The gathered
// partial images are recycled once composited — Gather shares pointers
// in-process and no producer touches its partial after the gather, so
// rank 0 owns all of them here.
func (v *VizInSitu) renderOne(ctx *Ctx, f *grid.Field, dir [3]float64) (*render.Image, error) {
	r, err := render.NewRenderer(v.Width, v.Height, vizTF, dir, [3]float64{0, 1, 0}, vizStep, ctx.Global)
	if err != nil {
		return nil, err
	}
	part := r.RenderBlock(f, ctx.Owned)
	images := ctx.Comm.Gather(0, part)
	if ctx.Comm.ID() != 0 {
		return nil, nil
	}
	// Composite in visibility order of the blocks.
	order := r.BlockOrder(ctx.Decomp)
	ordered := make([]*render.Image, 0, len(images))
	for _, rank := range order {
		ordered = append(ordered, images[rank].(*render.Image))
	}
	out, err := render.CompositeFrontToBack(ordered)
	for _, p := range ordered {
		render.PutImage(p)
	}
	return out, err
}

// VizHybrid is the hybrid renderer: each rank down-samples its block
// in-situ (at every Factor-th grid point); the single serial
// in-transit stage builds the block lookup table and ray-casts the
// down-sampled volume.
type VizHybrid struct {
	Var    string
	EveryN int
	Factor int // down-sampling factor (the paper uses 8)
	Width  int
	Height int
	// Tag distinguishes multiple simultaneous instances (linked
	// views); it is appended to the analysis name.
	Tag string
	// Cameras ray-casts the down-sampled volume once per orbit
	// direction (render.OrbitDirs) in the in-transit stage. The staged
	// payload is unchanged — the extra views cost only in-transit
	// compute, which is the hybrid placement's whole point. 0 or 1
	// renders the one default frame.
	Cameras int
	// AutoRange steers the transfer function per step: the in-transit
	// stage frames HotMetal over the received blocks' global value
	// range, so the rendering adapts as the flame evolves — the
	// on-the-fly visualization-parameter steering a concurrent
	// approach enables.
	AutoRange bool
}

// NewVizHybrid returns the hybrid renderer with the paper's 8x
// down-sampling.
func NewVizHybrid(w, h int, factor int) *VizHybrid {
	return &VizHybrid{Var: "T", Width: w, Height: h, Factor: factor}
}

// Name implements Analysis.
func (v *VizHybrid) Name() string {
	if v.Tag != "" {
		return "hybrid visualization [" + v.Tag + "]"
	}
	return "hybrid visualization"
}

// Every implements Analysis.
func (v *VizHybrid) Every() int { return v.EveryN }

// InSituStage implements HybridAnalysis: down-sample and marshal.
func (v *VizHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	return v.stage(ctx, false)
}

// InSituStageShaped implements ShapedStage: under overload the ladder's
// shaped rung doubles the down-sampling factor, so a browned-out
// staging tier receives an eighth of the bytes instead of nothing.
func (v *VizHybrid) InSituStageShaped(ctx *Ctx) ([]byte, error) {
	return v.stage(ctx, true)
}

func (v *VizHybrid) stage(ctx *Ctx, shaped bool) ([]byte, error) {
	name := v.Var
	if name == "" {
		name = "T"
	}
	f := ctx.Sim.GhostedField(name)
	if f == nil {
		return nil, fmt.Errorf("viz: unknown variable %q", name)
	}
	factor := v.Factor
	if factor < 1 {
		factor = 8
	}
	if shaped {
		factor *= 2
	}
	payload, _ := render.DownsampleForTransit(f, ctx.Owned, factor)
	return payload, nil
}

// PayloadFloatTail implements QuantizableStage: the staged payload is
// one field marshal (name, box, count, then the float64 tail), so the
// lossy transfer-path codecs can transform the sample data while the
// header travels verbatim; the box gives the tail's shape.
func (v *VizHybrid) PayloadFloatTail(payload []byte) (off, nx, ny int, ok bool) {
	return grid.FloatTail(payload)
}

// FrameVar implements FrameAnalysis: the store variable hybrid frames
// are filed under.
func (v *VizHybrid) FrameVar() string {
	name := v.Var
	if name == "" {
		name = "T"
	}
	name += ".hybrid"
	if v.Tag != "" {
		name += "." + v.Tag
	}
	return name
}

// RunFallback implements InSituFallback: when the transit path is
// degraded the frame renders fully in-situ — full-resolution
// ray-casting plus gather/composite — instead of staging down-sampled
// blocks. The camera count carries over so a degraded step still fills
// every cell of its image-database row.
func (v *VizHybrid) RunFallback(ctx *Ctx) (any, error) {
	in := &VizInSitu{Var: v.Var, Width: v.Width, Height: v.Height, Tag: v.Tag, Cameras: v.Cameras}
	return in.RunInSitu(ctx)
}

// InTransit implements HybridAnalysis: assemble the lookup table and
// render serially. The table is the transit scratch's, so a bucket
// decodes step after step into the same blocks; the frames it returns
// are pooled images that point into none of them.
func (v *VizHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	bt := &ts.table
	bt.Reset()
	for i, p := range payloads {
		if err := bt.AddMarshalled(p); err != nil {
			return nil, fmt.Errorf("viz: payload %d: %w", i, err)
		}
	}
	tf := vizTF
	if v.AutoRange {
		lo, hi := bt.ValueRange()
		if hi <= lo {
			hi = lo + 1
		}
		tf = render.HotMetal(lo, hi)
	}
	fs := &render.FrameSet{}
	for i, dir := range render.OrbitDirs(v.Cameras) {
		r, err := render.NewRenderer(v.Width, v.Height, tf, dir, [3]float64{0, 1, 0}, vizStep, bt.Bounds())
		if err == nil {
			var img *render.Image
			img, err = r.RenderTable(bt)
			if err == nil {
				fs.Frames = append(fs.Frames, render.Frame{Cam: render.CameraName(i), Img: img})
				continue
			}
		}
		for _, fr := range fs.Frames {
			render.PutImage(fr.Img)
		}
		return nil, err
	}
	return fs, nil
}
