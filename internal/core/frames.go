package core

import (
	"fmt"

	"insitu/internal/render"
)

// FrameSink receives rendered frames as a run produces them — the
// pipeline's hook into the Cinema-style image database. It is
// implemented by *imagestore.Store; core depends only on this interface
// so the pipeline builds without the store and a nil sink keeps the
// legacy in-memory result path byte for byte.
//
// PutFrames files one step's frames of one variable — a single image
// or a whole multi-camera set — as one commit, all or none, and
// returns their content digests in frame order. It must be safe for
// concurrent use: the simulation loop (rank 0 in-situ results) and the
// drain goroutine (in-transit results) both persist frames.
type FrameSink interface {
	PutFrames(variable string, step int, frames []render.Frame) ([]string, error)
}

// FrameRef is what replaces a raw framebuffer in Report.Results when a
// FrameSink is attached: the Cinema spec the frame was filed under plus
// its content digest. The pixels live in the store; the run's working
// set no longer accumulates framebuffers.
type FrameRef struct {
	Var    string
	Step   int
	Cam    string
	Digest string
}

// FrameAnalysis marks an analysis whose results are rendered frames
// (*render.Image or *render.FrameSet) and names the store variable they
// are filed under. Analyses that do not implement it pass through the
// frame hook untouched.
type FrameAnalysis interface {
	FrameVar() string
}

// persistFrames routes one analysis result through the configured
// FrameSink: frames are encoded and filed under their Cinema spec, the
// pooled framebuffers are recycled exactly once, and the stored output
// becomes a FrameRef (or []FrameRef for a multi-camera set). Non-frame
// results — and every result when no sink is configured — pass through
// unchanged. Degraded wrappers are persisted by their inner value and
// rewrapped, so a shaped or fallback frame still reaches the store.
//
// On a store error the original output is returned untouched and
// nothing is recycled: the frame stays live in Results rather than
// risking a recycled buffer someone still references.
func (p *Pipeline) persistFrames(rt *route, step int, out any) any {
	if p.cfg.Store == nil || rt.frameVar == "" {
		return out
	}
	switch v := out.(type) {
	case *render.Image:
		if refs := p.putFrames(rt, step, []render.Frame{{Cam: render.CameraName(0), Img: v}}); refs != nil {
			return refs[0]
		}
	case *render.FrameSet:
		if refs := p.putFrames(rt, step, v.Frames); refs != nil {
			return refs
		}
	case Degraded:
		if v.Value == nil {
			return out
		}
		v.Value = p.persistFrames(rt, step, v.Value)
		return v
	}
	return out
}

// putFrames files one result's frames as a single store commit and
// recycles them — only after the whole set persisted: on an error (nil
// return, recorded on the run) every frame stays alive.
func (p *Pipeline) putFrames(rt *route, step int, frames []render.Frame) []FrameRef {
	digests, err := p.cfg.Store.PutFrames(rt.frameVar, step, frames)
	if err != nil {
		p.recordErr(fmt.Errorf("core: store frames %s step %d: %w", rt.name, step, err))
		return nil
	}
	refs := make([]FrameRef, len(frames))
	for i, fr := range frames {
		refs[i] = FrameRef{Var: rt.frameVar, Step: step, Cam: fr.Cam, Digest: digests[i]}
		render.PutImage(fr.Img)
	}
	return refs
}
