package core

import (
	"fmt"
	"sync"
	"testing"

	"insitu/internal/render"
)

// memSink is an in-memory FrameSink: it encodes each frame (so digests
// are real) but keeps only the digest, mimicking the store's ownership
// contract — the sink never retains the *render.Image.
type memSink struct {
	mu     sync.Mutex
	frames map[string]string // "var/step/cam" -> digest
	fail   bool
}

func newMemSink() *memSink { return &memSink{frames: map[string]string{}} }

func (m *memSink) PutFrames(variable string, step int, frames []render.Frame) ([]string, error) {
	if m.fail {
		return nil, fmt.Errorf("memSink: injected failure")
	}
	digests := make([]string, len(frames))
	for i, fr := range frames {
		png, err := fr.Img.PNG()
		if err != nil {
			return nil, err
		}
		digests[i] = fmt.Sprintf("%x-%d", len(png), step)
		m.mu.Lock()
		m.frames[fmt.Sprintf("%s/%d/%s", variable, step, fr.Cam)] = digests[i]
		m.mu.Unlock()
	}
	return digests, nil
}

// TestFrameLifecycleNoLeak is the viz frame lifecycle regression gate:
// with a FrameSink attached, every pooled framebuffer a run produces —
// in-situ composites, gathered partials, in-transit renders, both
// single- and multi-camera — must be recycled exactly once. The pool
// ledger's delta across the run is the proof.
func TestFrameLifecycleNoLeak(t *testing.T) {
	const steps, cams = 3, 2
	sink := newMemSink()
	cfg := DefaultConfig(testSimConfig(2, 2, 1))
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vizIS := NewVizInSitu(16, 12)
	vizIS.Cameras = cams
	vizHy := NewVizHybrid(16, 12, 2)
	vizHy.Cameras = cams
	p.Register(vizIS)
	p.Register(vizHy)

	before := render.ImagesOutstanding()
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	if after := render.ImagesOutstanding(); after != before {
		t.Fatalf("frame leak: %d pooled images outstanding after the run (was %d)", after, before)
	}

	// Results must hold FrameRefs, not framebuffers, and the sink must
	// hold every spec cell: vars × steps × cameras.
	for _, a := range []Analysis{vizIS, vizHy} {
		for step := 1; step <= steps; step++ {
			out := rep.Result(a.Name(), step)
			refs, ok := out.([]FrameRef)
			if !ok {
				t.Fatalf("%s step %d: result is %T, want []FrameRef", a.Name(), step, out)
			}
			if len(refs) != cams {
				t.Fatalf("%s step %d: %d refs, want %d", a.Name(), step, len(refs), cams)
			}
			for _, ref := range refs {
				if got := sink.frames[fmt.Sprintf("%s/%d/%s", ref.Var, ref.Step, ref.Cam)]; got != ref.Digest {
					t.Fatalf("ref %v not backed by the sink (got %q)", ref, got)
				}
			}
		}
	}
	if len(sink.frames) != 2*steps*cams {
		t.Fatalf("sink holds %d frames, want %d", len(sink.frames), 2*steps*cams)
	}
}

// TestFrameLifecycleSingleCamera: Cameras unset must keep the legacy
// single-image result shape — routed through the sink as cam00 — and
// still leak nothing.
func TestFrameLifecycleSingleCamera(t *testing.T) {
	sink := newMemSink()
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(NewVizInSitu(16, 12))
	before := render.ImagesOutstanding()
	rep, err := p.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if after := render.ImagesOutstanding(); after != before {
		t.Fatalf("frame leak: outstanding went %d -> %d", before, after)
	}
	out := rep.Result("in-situ visualization", 2)
	ref, ok := out.(FrameRef)
	if !ok {
		t.Fatalf("result is %T, want FrameRef", out)
	}
	if ref.Cam != render.CameraName(0) || ref.Var != "T.insitu" {
		t.Fatalf("unexpected ref %+v", ref)
	}
	if sink.frames[fmt.Sprintf("%s/%d/%s", ref.Var, ref.Step, ref.Cam)] != ref.Digest {
		t.Fatal("ref not backed by the sink")
	}
}

// TestNoSinkKeepsRawResults: without a FrameSink the result path is
// unchanged — raw framebuffers in Results, exactly as before the store
// existed.
func TestNoSinkKeepsRawResults(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(testSimConfig(2, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(NewVizInSitu(16, 12))
	rep, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Result("in-situ visualization", 1).(*render.Image); !ok {
		t.Fatalf("result is %T, want *render.Image", rep.Result("in-situ visualization", 1))
	}
}

// TestSinkErrorKeepsFrameAlive: a failing sink must leave the original
// framebuffer in Results (never recycled) and surface the error.
func TestSinkErrorKeepsFrameAlive(t *testing.T) {
	sink := newMemSink()
	sink.fail = true
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(NewVizInSitu(16, 12))
	rep, err := p.Run(1)
	if err == nil {
		t.Fatal("expected the sink failure to surface")
	}
	img, ok := rep.Result("in-situ visualization", 1).(*render.Image)
	if !ok || len(img.Pix) == 0 {
		t.Fatalf("failed persist must keep the raw frame, got %T", rep.Result("in-situ visualization", 1))
	}
}
