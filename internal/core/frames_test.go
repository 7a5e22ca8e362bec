package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"insitu/internal/render"
)

// memSink is an in-memory FrameSink: it encodes each frame (so digests
// are real) and keeps the digest and, when made with pixels, a copy of
// the frame — never the *render.Image itself, mimicking the store's
// ownership contract: the run recycles the framebuffer once PutFrames
// returns.
type memSink struct {
	mu     sync.Mutex
	frames map[string]string        // "var/step/cam" -> digest
	pixels map[string]*render.Image // "var/step/cam" -> copy; nil unless asked for
	fail   bool
}

func newMemSink(pixels bool) *memSink {
	m := &memSink{frames: map[string]string{}}
	if pixels {
		m.pixels = map[string]*render.Image{}
	}
	return m
}

func (m *memSink) PutFrames(variable string, step int, frames []render.Frame) ([]string, error) {
	if m.fail {
		return nil, fmt.Errorf("memSink: injected failure")
	}
	digests := make([]string, len(frames))
	for i, fr := range frames {
		png, err := fr.Img.AppendPNG(nil)
		if err != nil {
			return nil, err
		}
		digests[i] = fmt.Sprintf("%x-%d", len(png), step)
		key := fmt.Sprintf("%s/%d/%s", variable, step, fr.Cam)
		m.mu.Lock()
		m.frames[key] = digests[i]
		if m.pixels != nil {
			m.pixels[key] = &render.Image{W: fr.Img.W, H: fr.Img.H, Pix: slices.Clone(fr.Img.Pix)}
		}
		m.mu.Unlock()
	}
	return digests, nil
}

// image returns the pixel copy of the one frame a single-camera result
// refers to, failing the test if the result has another shape.
func (m *memSink) image(t *testing.T, out any) *render.Image {
	t.Helper()
	refs, ok := out.([]FrameRef)
	if !ok || len(refs) != 1 {
		t.Fatalf("result is %T %v, want a one-ref []FrameRef", out, out)
	}
	img := m.pixels[fmt.Sprintf("%s/%d/%s", refs[0].Var, refs[0].Step, refs[0].Cam)]
	if img == nil {
		t.Fatalf("sink kept no pixels for %+v", refs[0])
	}
	return img
}

// TestFrameLifecycleNoLeak is the viz frame lifecycle regression gate:
// with or without a FrameSink attached, every pooled framebuffer a run
// produces — in-situ composites, gathered partials, in-transit renders,
// both single- and multi-camera — must be recycled exactly once. The
// pool ledger's delta across the run is the proof.
func TestFrameLifecycleNoLeak(t *testing.T) {
	const steps, cams = 3, 2
	run := func(sink FrameSink) (*Report, []Analysis) {
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
			t.Fatalf("frame leak (sink %T): %d pooled images outstanding after the run (was %d)", sink, after, before)
		}
		return rep, []Analysis{vizIS, vizHy}
	}
	run(nil)
	sink := newMemSink(false)
	rep, analyses := run(sink)

	// Results must hold FrameRefs, not framebuffers, and the sink must
	// hold every spec cell: vars × steps × cameras.
	for _, a := range analyses {
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

// TestFrameLifecycleSingleCamera: Cameras unset gives the same result
// shape as an orbit — a []FrameRef, here of one ref filed as cam00 —
// and still leaks nothing.
func TestFrameLifecycleSingleCamera(t *testing.T) {
	sink := newMemSink(false)
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
	refs, ok := out.([]FrameRef)
	if !ok || len(refs) != 1 {
		t.Fatalf("result is %T %v, want a one-ref []FrameRef", out, out)
	}
	ref := refs[0]
	if ref.Cam != render.CameraName(0) || ref.Var != "T.insitu" {
		t.Fatalf("unexpected ref %+v", ref)
	}
	if sink.frames[fmt.Sprintf("%s/%d/%s", ref.Var, ref.Step, ref.Cam)] != ref.Digest {
		t.Fatal("ref not backed by the sink")
	}
}

// TestSinkErrorKeepsFrameAlive: a failing sink must leave the original
// framebuffer in Results (never recycled) and surface the error.
func TestSinkErrorKeepsFrameAlive(t *testing.T) {
	sink := newMemSink(false)
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
	fs, ok := rep.Result("in-situ visualization", 1).(*render.FrameSet)
	if !ok || len(fs.Frames) != 1 || len(fs.Frames[0].Img.Pix) == 0 {
		t.Fatalf("failed persist must keep the raw frame, got %T", rep.Result("in-situ visualization", 1))
	}
}
