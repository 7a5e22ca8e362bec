package core

import (
	"reflect"
	"testing"

	"insitu/internal/codec"
)

// runCodecPipeline runs a 2x2-rank hybrid viz+stats pipeline with the
// given codec config and returns the report and the frames it rendered
// (a pixel-keeping memSink). The viz route stages at full resolution
// (factor 1) so the payload's float tail dominates the marshal header;
// kernelRate damps the sim's random ignition kernels so consecutive
// timesteps stay close (the regime delta exploits).
func runCodecPipeline(t *testing.T, codecs map[string]codec.Spec, steps int, kernelRate float64) (*Report, *memSink) {
	t.Helper()
	simCfg := testSimConfig(2, 2, 1)
	simCfg.KernelRate = kernelRate
	cfg := DefaultConfig(simCfg)
	cfg.Codecs = codecs
	sink := newMemSink(true)
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(NewVizHybrid(16, 12, 1))
	p.Register(&StatsHybrid{Vars: []string{"T"}, EveryN: 1})
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.PinnedRegions(); n != 0 {
		t.Fatalf("%d regions pinned after drain", n)
	}
	return rep, sink
}

// TestCodecIdentityMatchesLegacyPath: an explicit identity codec
// config reproduces the no-config pipeline exactly — same results,
// same bytes on the wire — so the codec layer is a strict no-op until
// a codec is selected.
func TestCodecIdentityMatchesLegacyPath(t *testing.T) {
	const steps = 3
	plain, plainFrames := runCodecPipeline(t, nil, steps, 0.6)
	ident, identFrames := runCodecPipeline(t, map[string]codec.Spec{"*": {ID: codec.Identity}}, steps, 0.6)
	if plain.Net.BytesMoved != ident.Net.BytesMoved {
		t.Fatalf("identity codec moved %d wire bytes, legacy moved %d",
			ident.Net.BytesMoved, plain.Net.BytesMoved)
	}
	if !reflect.DeepEqual(plain.Results, ident.Results) || !reflect.DeepEqual(plainFrames.pixels, identFrames.pixels) {
		t.Fatal("identity codec changed analysis results")
	}
	if ident.Codec.RawBytes != ident.Codec.EncodedBytes {
		t.Fatalf("identity must pin raw bytes unchanged: %+v", ident.Codec)
	}
}

// TestCodecDeltaExact: delta framing on every route reproduces the
// plain run's results bit-for-bit (the codec is exact) while moving
// fewer bytes over the interconnect.
func TestCodecDeltaExact(t *testing.T) {
	const steps = 4
	plain, plainFrames := runCodecPipeline(t, nil, steps, 0.05)
	delta, deltaFrames := runCodecPipeline(t, map[string]codec.Spec{"*": {ID: codec.Delta}}, steps, 0.05)
	if !reflect.DeepEqual(plain.Results, delta.Results) || !reflect.DeepEqual(plainFrames.pixels, deltaFrames.pixels) {
		t.Fatal("delta-framed run must produce identical results")
	}
	if delta.Codec.MaxError != 0 {
		t.Fatalf("delta recorded max error %g, want 0", delta.Codec.MaxError)
	}
	if delta.Codec.RawBytes == 0 || delta.Codec.EncodedBytes >= delta.Codec.RawBytes {
		t.Fatalf("delta produced no byte economy: %+v", delta.Codec)
	}
	if delta.Net.BytesMoved >= plain.Net.BytesMoved {
		t.Fatalf("delta moved %d wire bytes, plain moved %d — encoded frames must shrink traffic",
			delta.Net.BytesMoved, plain.Net.BytesMoved)
	}
	t.Logf("delta: wire %d -> %d bytes, codec ratio %.2fx",
		plain.Net.BytesMoved, delta.Net.BytesMoved, delta.Codec.Ratio())
}

// TestCodecQuantizeVizPath: quantizing the viz route cuts its
// bytes-on-wire by >= 4.5x at a bounded, recorded reconstruction error,
// and every step still renders a real image on the transit path.
func TestCodecQuantizeVizPath(t *testing.T) {
	const steps = 4
	plain, _ := runCodecPipeline(t, nil, steps, 0.6)
	quant, _ := runCodecPipeline(t, map[string]codec.Spec{
		"hybrid visualization": {ID: codec.Quantize},
	}, steps, 0.6)
	for s := 1; s <= steps; s++ {
		out := quant.Result("hybrid visualization", s)
		if refs, ok := out.([]FrameRef); !ok || len(refs) != 1 || refs[0].Digest == "" {
			t.Fatalf("step %d: quantized viz did not render on the transit path: %T %v", s, out, out)
		}
	}
	// Stats results are untouched (that route stayed identity).
	if !reflect.DeepEqual(plain.Results["hybrid statistics"], quant.Results["hybrid statistics"]) {
		t.Fatal("quantizing the viz route must not perturb the stats route")
	}
	if r := quant.Codec.Ratio(); r < 4.5 {
		t.Fatalf("quantized viz ratio %.2fx, want >= 4.5x", r)
	}
	if quant.Codec.MaxError <= 0 {
		t.Fatal("quantize must record its bounded reconstruction error")
	}
	if quant.Net.BytesMoved >= plain.Net.BytesMoved {
		t.Fatalf("quantize moved %d wire bytes, plain moved %d",
			quant.Net.BytesMoved, plain.Net.BytesMoved)
	}
	t.Logf("quantize: wire %d -> %d bytes, ratio %.2fx, max err %g",
		plain.Net.BytesMoved, quant.Net.BytesMoved, quant.Codec.Ratio(), quant.Codec.MaxError)
}

// TestRunReleasesDeltaBases: when Run returns, the delta codec's base
// store is empty, its copies handed back to bufpool, run after run: a
// second pipeline in the same process starts from an empty store too.
func TestRunReleasesDeltaBases(t *testing.T) {
	for run := 1; run <= 2; run++ {
		cfg := DefaultConfig(testSimConfig(2, 1, 1))
		cfg.Codecs = map[string]codec.Spec{"*": {ID: codec.Delta}}
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsHybrid{Vars: []string{"T"}, EveryN: 1})
		if n := p.sched.codecs.Bases(); n != 0 {
			t.Fatalf("run %d: a new registry retains %d bases", run, n)
		}
		if _, err := p.Run(3); err != nil {
			t.Fatal(err)
		}
		if n := p.sched.codecs.Bases(); n != 0 {
			t.Fatalf("run %d: %d delta bases still retained after Run", run, n)
		}
	}
}

// TestCodecDeltaEveryOtherStep: a delta route due every second step
// encodes each payload against the stream's previous encode, two steps
// back, so it ships XOR frames smaller than its payloads (ratio above
// 1) and its results equal the plain run's.
func TestCodecDeltaEveryOtherStep(t *testing.T) {
	const steps = 8
	run := func(codecs map[string]codec.Spec) *Report {
		simCfg := testSimConfig(2, 1, 1)
		simCfg.KernelRate = 0.05
		cfg := DefaultConfig(simCfg)
		cfg.Codecs = codecs
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsHybrid{EveryN: 2}) // all 14 variables
		rep, err := p.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, delta := run(nil), run(map[string]codec.Spec{"*": {ID: codec.Delta}})
	if !reflect.DeepEqual(plain.Results, delta.Results) {
		t.Fatal("delta-framed run must produce identical results")
	}
	if r := delta.Codec.Ratio(); r <= 1 {
		t.Fatalf("delta at every 2 steps: codec ratio %.3f (%+v), want above 1", r, delta.Codec)
	}
	t.Logf("delta at every 2 steps: ratio %.3f, wire %d -> %d bytes", delta.Codec.Ratio(), plain.Net.BytesMoved, delta.Net.BytesMoved)
}
