package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// testSimConfig returns a small lifted-jet proxy over px*py*pz ranks.
func testSimConfig(px, py, pz int) sim.Config {
	cfg := sim.DefaultConfig(grid.NewBox(20, 12, 8), px, py, pz)
	cfg.KernelRate = 0.6
	return cfg
}

// globalFields runs a serial reference simulation and returns the
// requested variables at the given step.
func globalFields(t *testing.T, cfg sim.Config, steps int, vars []string) map[string]*grid.Field {
	t.Helper()
	ref := cfg
	ref.Px, ref.Py, ref.Pz = 1, 1, 1
	s, err := sim.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*grid.Field)
	comm.Run(1, func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			t.Error(err)
			return
		}
		rk.RunSteps(steps)
		for _, v := range vars {
			out[v] = rk.Field(v)
		}
	})
	return out
}

func TestPipelineValidation(t *testing.T) {
	cfg := DefaultConfig(testSimConfig(2, 2, 1))
	cfg.DSServers = 0
	if _, err := NewPipeline(cfg); err == nil {
		t.Fatal("zero servers must error")
	}
	cfg = DefaultConfig(testSimConfig(2, 2, 1))
	cfg.Buckets = 0
	if _, err := NewPipeline(cfg); err == nil {
		t.Fatal("zero buckets must error")
	}
	cfg = DefaultConfig(testSimConfig(2, 2, 1))
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0); err == nil {
		t.Fatal("zero steps must error")
	}
}

// TestPipelineEndToEnd runs all five of the paper's analysis variants
// plus the auto-correlation extension through the full pipeline.
func TestPipelineEndToEnd(t *testing.T) {
	const steps = 4
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	topo := NewTopologyHybrid()
	topo.SimplifyEps = 0.05
	topo.FeatureThreshold = 1.0
	p.Register(&StatsInSitu{})
	p.Register(&StatsHybrid{})
	p.Register(NewVizInSitu(16, 12))
	p.Register(NewVizHybrid(16, 12, 2))
	p.Register(topo)
	p.Register(&AutoCorrHybrid{Lags: []int{1, 2}})

	rep, err := p.Run(steps)
	if err != nil {
		t.Fatalf("pipeline run failed: %v (all errs: %v)", err, rep.Errs)
	}

	// Every analysis must have produced a result at every step.
	for _, name := range []string{
		"in-situ descriptive statistics",
		"hybrid descriptive statistics",
		"in-situ visualization",
		"hybrid visualization",
		"hybrid topology",
		"hybrid auto-correlation",
	} {
		for s := 1; s <= steps; s++ {
			if rep.Result(name, s) == nil {
				t.Fatalf("%s: missing result at step %d", name, s)
			}
		}
	}

	// Hybrid and in-situ statistics must agree.
	for s := 1; s <= steps; s++ {
		a := rep.Result("in-situ descriptive statistics", s).(map[string]stats.Derived)
		b := rep.Result("hybrid descriptive statistics", s).(map[string]stats.Derived)
		for _, v := range sim.VarNames {
			da, db := a[v], b[v]
			if da.N != db.N || math.Abs(da.Mean-db.Mean) > 1e-9 ||
				math.Abs(da.Variance-db.Variance) > 1e-9 {
				t.Fatalf("step %d var %s: in-situ %+v != hybrid %+v", s, v, da, db)
			}
		}
	}

	// The topology result carries the global tree and features.
	tr := rep.Result("hybrid topology", steps).(*TopologyResult)
	if tr.Tree == nil || tr.Tree.Len() == 0 {
		t.Fatal("topology returned an empty tree")
	}
	if tr.Stream.Declared == 0 {
		t.Fatal("streaming stats missing")
	}

	// Autocorrelation: adjacent steps of a smooth field correlate
	// strongly.
	ac := rep.Result("hybrid auto-correlation", steps).(*AutoCorrResult)
	if len(ac.Corr) != 2 {
		t.Fatalf("want 2 lags, got %+v", ac)
	}
	if ac.Corr[0] < 0.5 {
		t.Fatalf("lag-1 autocorrelation of a slowly evolving field should be high, got %g", ac.Corr[0])
	}
	if ac.Corr[0] <= ac.Corr[1] {
		t.Fatalf("autocorrelation should decay with lag: %v", ac.Corr)
	}

	// Data actually moved through the fabric.
	if rep.Net.BytesMoved == 0 {
		t.Fatal("no bytes moved through the network")
	}
	// Metrics captured all analyses plus sim time.
	if total, _, n := rep.Metrics.SimTime(); total <= 0 || n != steps {
		t.Fatalf("sim time not recorded: %v over %d steps", total, n)
	}
	if got := len(rep.Metrics.Analyses()); got != 6 {
		t.Fatalf("want metrics for 6 analyses, got %d: %v", got, rep.Metrics.Analyses())
	}
	if rep.Metrics.TableII() == "" {
		t.Fatal("empty Table II")
	}
}

// TestPipelineTopologyMatchesSerial: the tree produced through the
// full pipeline (simulation -> in-situ subtrees -> DART -> staging ->
// streaming glue) equals the serial merge tree of the global field.
func TestPipelineTopologyMatchesSerial(t *testing.T) {
	const steps = 3
	simCfg := testSimConfig(2, 2, 2)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(NewTopologyHybrid())
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	want := globalFields(t, simCfg, steps, []string{"T"})["T"]
	serial := mergetree.FromField(want, simCfg.Global)
	got := rep.Result("hybrid topology", steps).(*TopologyResult)
	if !sameTree(mergetree.Reduce(serial, nil), mergetree.Reduce(got.Tree, nil)) {
		t.Fatal("pipeline tree differs from serial merge tree of the global field")
	}
}

// TestPipelineVizMatchesSerial: the in-situ composited frame equals a
// serial render of the global field.
func TestPipelineVizMatchesSerial(t *testing.T) {
	const steps = 2
	simCfg := testSimConfig(2, 2, 1)
	sink := newMemSink(true)
	cfg := DefaultConfig(simCfg)
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viz := NewVizInSitu(20, 16)
	p.Register(viz)
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	img := sink.image(t, rep.Result("in-situ visualization", steps))

	want := globalFields(t, simCfg, steps, []string{"T"})["T"]
	r, err := render.NewRenderer(viz.Width, viz.Height, render.HotMetal(0.2, 2.0),
		render.DefaultDir, [3]float64{0, 1, 0}, 0.5, simCfg.Global)
	if err != nil {
		t.Fatal(err)
	}
	ref := r.RenderBlock(want, want.Box)
	diff, err := render.MeanAbsDiff(ref, img)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-9 {
		t.Fatalf("pipeline in-situ render differs from serial by %g", diff)
	}
}

func TestPipelineCadence(t *testing.T) {
	simCfg := testSimConfig(2, 1, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&StatsHybrid{EveryN: 3})
	rep, err := p.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 7; s++ {
		got := rep.Result("hybrid descriptive statistics", s) != nil
		want := s%3 == 0
		if got != want {
			t.Fatalf("step %d: result presence %v, want %v", s, got, want)
		}
	}
}

// failingAnalysis exercises the error path without deadlocking.
type failingAnalysis struct{}

func (failingAnalysis) Name() string { return "failing" }
func (failingAnalysis) Every() int   { return 1 }
func (failingAnalysis) InSituStage(ctx *Ctx) ([]byte, error) {
	return nil, errors.New("boom")
}
func (failingAnalysis) InTransit(step int, payloads [][]byte) (any, error) {
	return len(payloads), nil
}

func TestPipelineAnalysisErrorDoesNotHang(t *testing.T) {
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(failingAnalysis{})
	rep, err := p.Run(2)
	if err == nil {
		t.Fatal("failing analysis must surface an error")
	}
	if len(rep.Errs) == 0 {
		t.Fatal("errors must be collected in the report")
	}
}

// badAnalysis implements neither interface.
type badAnalysis struct{}

func (badAnalysis) Name() string { return "bad" }
func (badAnalysis) Every() int   { return 1 }

func TestPipelineRejectsUnknownAnalysisKind(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(testSimConfig(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(badAnalysis{})
	if _, err := p.Run(1); err == nil {
		t.Fatal("unknown analysis kind must error")
	}
}

// TestHybridStagesReduceData verifies the central premise: every
// hybrid intermediate payload is much smaller than the rank's raw
// block data.
func TestHybridStagesReduceData(t *testing.T) {
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&StatsHybrid{})
	p.Register(NewVizHybrid(16, 12, 4))
	rep, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	rawPerStep := int64(simCfg.Global.Size() * 8 * len(sim.VarNames))
	for _, name := range []string{"hybrid descriptive statistics", "hybrid visualization"} {
		b := rep.Metrics.Total(name)
		if b.MoveBytes == 0 {
			t.Fatalf("%s: no movement recorded", name)
		}
		if b.MoveBytes*20 > rawPerStep {
			t.Fatalf("%s moved %d bytes of %d raw — not a significant reduction", name, b.MoveBytes, rawPerStep)
		}
	}
}

// sameTree reports whether two merge trees hold the same nodes, values
// and arcs: trees list their nodes in sweep order, so equal trees are
// equal arrays.
func sameTree(a, b *mergetree.Tree) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Values, b.Values) && slices.Equal(a.Down, b.Down)
}
