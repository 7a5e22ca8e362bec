package core

import (
	"math"
	"strings"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/obs"
	"insitu/internal/render"
	"insitu/internal/stats"
)

// TestContingencyHybridPipeline validates the contingency analysis
// end to end: T and OH in a flame are strongly dependent, T and a
// constant-range velocity component much less so.
func TestContingencyHybridPipeline(t *testing.T) {
	const steps = 3
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&ContingencyHybrid{}) // T vs Y_OH
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result("hybrid contingency statistics", steps).(*ContingencyResult)
	if res.VarX != "T" || res.VarY != "Y_OH" {
		t.Fatalf("default variables wrong: %+v", res)
	}
	d := res.Derived
	if d.N != int64(simCfg.Global.Size()) {
		t.Fatalf("table covers %d points, want %d", d.N, simCfg.Global.Size())
	}
	if d.HX <= 0 || d.HXY <= 0 {
		t.Fatalf("entropies must be positive: %+v", d)
	}
	if d.MutualInfo < 0 || d.MutualInfo > math.Min(d.HX, d.HY)+1e-9 {
		t.Fatalf("MI out of bounds: %+v", d)
	}
	// The hybrid result must equal a serial table over the global
	// fields.
	gf := globalFields(t, simCfg, steps, []string{"T", "Y_OH"})
	ref, _ := stats.NewContingency(0, 2.5, 16, 0, 0.3, 16)
	if err := ref.UpdateBatch(gf["T"].Data, gf["Y_OH"].Data); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Counts {
		if ref.Counts[i] != res.Table.Counts[i] {
			t.Fatalf("hybrid table differs from serial at cell %d", i)
		}
	}
}

// TestContingencyUnknownVariable surfaces configuration errors.
func TestContingencyUnknownVariable(t *testing.T) {
	simCfg := testSimConfig(2, 1, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&ContingencyHybrid{VarX: "nope"})
	if _, err := p.Run(1); err == nil {
		t.Fatal("unknown variable must error")
	}
}

// TestFeatureStatsPipelineMatchesSerial drives the feature-based
// statistics extension through the full pipeline and checks the
// result against a serial computation over the global fields.
func TestFeatureStatsPipelineMatchesSerial(t *testing.T) {
	const steps = 3
	const threshold = 0.7
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&FeatureStatsHybrid{Threshold: threshold})
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Result("hybrid feature-based statistics", steps).([]mergetree.FeatureStat)
	if len(got) == 0 {
		t.Fatal("no features found; threshold too high for this run")
	}
	gf := globalFields(t, simCfg, steps, []string{"T", "Y_OH"})
	seg := mergetree.Segment(mergetree.FromField(gf["T"], simCfg.Global), threshold)
	perLabel := map[int64]*stats.Moments{}
	for id, label := range seg.Labels {
		m, ok := perLabel[label]
		if !ok {
			m = stats.NewMoments()
			perLabel[label] = m
		}
		i, j, k := grid.GlobalPoint(simCfg.Global, id)
		m.Update(gf["Y_OH"].At(i, j, k))
	}
	if len(got) != len(perLabel) {
		t.Fatalf("feature count: pipeline %d vs serial %d", len(got), len(perLabel))
	}
	totalN := int64(0)
	for _, fs := range got {
		totalN += fs.Stats.N
	}
	want := int64(len(seg.Labels))
	if totalN != want {
		t.Fatalf("feature stats cover %d voxels, serial segmentation has %d", totalN, want)
	}
}

// TestAssessTestInSitu completes Fig. 4's four stages in the pipeline:
// learn, derive, assess (outlier flags), test (Jarque–Bera).
func TestAssessTestInSitu(t *testing.T) {
	const steps = 3
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&AssessTestInSitu{})
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result("in-situ assess & test", steps).(*AssessTestResult)
	if res.Var != "T" || res.Assessed != int64(simCfg.Global.Size()) {
		t.Fatalf("assessment coverage wrong: %+v", res)
	}
	if res.Extremes < 0 || res.Extremes > res.Assessed {
		t.Fatalf("extreme count out of range: %+v", res)
	}
	if res.Test.Statistic <= 0 {
		t.Fatalf("test statistic missing: %+v", res)
	}
	// Flame temperatures are bimodal: normality must be rejected.
	if !res.Test.Reject {
		t.Fatalf("normality unexpectedly not rejected: %+v", res.Test)
	}
}

// TestPipelineRunsOnce: the pipeline is one-shot by design.
func TestPipelineRunsOnce(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(testSimConfig(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(1); err == nil {
		t.Fatal("second Run must be rejected")
	}
}

// TestPipelineTrace: the Gantt's occupancy spans are the simulation's
// sim.step spans and the staging buckets' task.attempt spans.
func TestPipelineTrace(t *testing.T) {
	simCfg := testSimConfig(2, 1, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&StatsHybrid{})
	rec := p.EnableObs().Recorder()
	if _, err := p.Run(3); err != nil {
		t.Fatal(err)
	}
	lanes := obs.TimelineLanes(rec)
	if len(lanes) < 2 || lanes[0] != "sim" {
		t.Fatalf("timeline lanes wrong: %v", lanes)
	}
	simSpans := 0
	for _, s := range rec.SpansCat(obs.CatSim) {
		if s.Lane == "sim" && s.Name == "sim.step" {
			simSpans++
		}
	}
	taskSpans := 0
	for _, s := range rec.SpansCat(obs.CatTask) {
		if strings.HasPrefix(s.Lane, "bucket-") && s.Name == "task.attempt" {
			taskSpans++
		}
	}
	if simSpans != 3 || taskSpans != 3 {
		t.Fatalf("want 3 sim + 3 task spans, got %d + %d", simSpans, taskSpans)
	}
	if obs.Gantt(rec, 60) == "" {
		t.Fatal("gantt rendering empty")
	}
}

// TestVizAutoRange: the steered transfer function adapts to the data,
// so an auto-ranged render differs from the fixed-window default and
// remains a valid image.
func TestVizAutoRange(t *testing.T) {
	simCfg := testSimConfig(2, 2, 1)
	run := func(auto bool) *render.Image {
		sink := newMemSink(true)
		cfg := DefaultConfig(simCfg)
		cfg.Store = sink
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := NewVizHybrid(16, 12, 2)
		v.AutoRange = auto
		p.Register(v)
		rep, err := p.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return sink.image(t, rep.Result(v.Name(), 2))
	}
	fixed := run(false)
	adaptive := run(true)
	diff, err := render.MeanAbsDiff(fixed, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if diff == 0 {
		t.Fatal("auto-ranged transfer function had no effect")
	}
	for _, v := range adaptive.Pix {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("adaptive render out of range: %g", v)
		}
	}
}
