package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/render"
)

// FrameSink receives rendered frames as a run produces them — the
// pipeline's hook into the Cinema-style image database. It is
// implemented by *imagestore.Store; core depends only on this interface
// so the pipeline builds without the store. A pipeline with no store
// uses digestSink, so every run takes the same frame path.
//
// PutFrames files one step's frames of one variable — a single image
// or a whole multi-camera set — as one commit, all or none, and
// returns their content digests in frame order. It must be safe for
// concurrent use: the simulation loop (rank 0 in-situ results) and the
// drain goroutine (in-transit results) both persist frames.
type FrameSink interface {
	PutFrames(variable string, step int, frames []render.Frame) ([]string, error)
}

// digestSink is the sink of a pipeline with no image store: it files
// nothing and returns the digests the store would assign (hex sha256 of
// each frame's PNG), so Results do not depend on having a store. It
// only hashes the bytes, so it encodes into a reused buffer.
type digestSink struct{}

func (digestSink) PutFrames(_ string, _ int, frames []render.Frame) ([]string, error) {
	buf := pngBufs.Get()
	defer func() { pngBufs.Put(buf) }()
	digests := make([]string, len(frames))
	for i, fr := range frames {
		var err error
		if buf, err = fr.Img.AppendPNG(buf[:0]); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf)
		digests[i] = hex.EncodeToString(sum[:])
	}
	return digests, nil
}

// pngBufs holds the digest sink's idle encode buffers, at most as many
// as frame sets were ever hashed at once.
var pngBufs bufpool.List[[]byte]

// FrameRef is what a rendered frame becomes in Report.Results: the
// Cinema spec the frame was filed under plus its content digest. The
// pixels live in the store (or, with no store, nowhere); the run's
// working set never accumulates framebuffers.
type FrameRef struct {
	Var    string
	Step   int
	Cam    string
	Digest string
}

// FrameAnalysis marks an analysis whose results are rendered frames
// (a *render.FrameSet, one frame per camera) and names the store
// variable they are filed under. Analyses that do not implement it
// pass through the frame hook untouched.
type FrameAnalysis interface {
	FrameVar() string
}

// persistFrames routes one analysis result through the pipeline's
// FrameSink: a step's frames are filed under their Cinema spec as one
// commit, the pooled framebuffers are recycled exactly once, and the
// stored output becomes a []FrameRef, one ref per camera. Non-frame
// results pass through unchanged. Degraded wrappers are persisted by
// their inner value and rewrapped, so a shaped or fallback frame still
// reaches the sink.
//
// On a sink error (recorded on the run) the original output is returned
// untouched and nothing is recycled: the frames stay live in Results
// rather than risking a recycled buffer someone still references.
func (p *Pipeline) persistFrames(rt *route, step int, out any) any {
	if rt.frameVar == "" {
		return out
	}
	switch v := out.(type) {
	case *render.FrameSet:
		digests, err := p.cfg.Store.PutFrames(rt.frameVar, step, v.Frames)
		if err != nil {
			p.recordErr(fmt.Errorf("core: store frames %s step %d: %w", rt.name, step, err))
			return out
		}
		refs := make([]FrameRef, len(v.Frames))
		for i, fr := range v.Frames {
			refs[i] = FrameRef{Var: rt.frameVar, Step: step, Cam: fr.Cam, Digest: digests[i]}
			render.PutImage(fr.Img)
		}
		return refs
	case Degraded:
		v.Value = p.persistFrames(rt, step, v.Value)
		return v
	}
	return out
}
