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
// PutFrame must be safe for concurrent use: the simulation loop (rank 0
// in-situ results) and the drain goroutine (in-transit results) both
// persist frames.
type FrameSink interface {
	PutFrame(variable string, step int, cam string, img *render.Image) (string, error)
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
func (p *Pipeline) persistFrames(name string, step int, out any) any {
	if p.cfg.Store == nil {
		return out
	}
	variable, ok := p.frameVars[name]
	if !ok {
		return out
	}
	switch v := out.(type) {
	case *render.Image:
		cam := render.CameraName(0)
		digest, err := p.cfg.Store.PutFrame(variable, step, cam, v)
		if err != nil {
			p.recordErr(fmt.Errorf("core: store frame %s step %d: %w", name, step, err))
			return out
		}
		render.PutImage(v)
		return FrameRef{Var: variable, Step: step, Cam: cam, Digest: digest}
	case *render.FrameSet:
		refs := make([]FrameRef, 0, len(v.Frames))
		for _, fr := range v.Frames {
			digest, err := p.cfg.Store.PutFrame(variable, step, fr.Cam, fr.Img)
			if err != nil {
				p.recordErr(fmt.Errorf("core: store frame %s step %d %s: %w", name, step, fr.Cam, err))
				return out
			}
			refs = append(refs, FrameRef{Var: variable, Step: step, Cam: fr.Cam, Digest: digest})
		}
		// Recycle only after every frame persisted: the early-return
		// error path above must leave the whole set alive.
		for _, fr := range v.Frames {
			render.PutImage(fr.Img)
		}
		return refs
	case Degraded:
		if v.Value == nil {
			return out
		}
		v.Value = p.persistFrames(name, step, v.Value)
		return v
	}
	return out
}
