package workload

import (
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/sim"
)

// TestScenarioShapes: table2-9440.json doubles table2-4896.json's x
// split, exactly like the paper (16x28x10 -> 32x28x10), and changes
// nothing else a Table I or II column reads.
func TestScenarioShapes(t *testing.T) {
	a, b := loadExample(t, "table2-4896"), loadExample(t, "table2-9440")
	sa, sb := a.Tenants[0].Sim, b.Tenants[0].Sim
	if sb.PX != 2*sa.PX {
		t.Fatalf("9440 config must double the x split: px %d vs %d", sb.PX, sa.PX)
	}
	sb.PX = sa.PX
	if sa != sb {
		t.Fatalf("the configs differ beyond px: %+v vs %+v", sa, sb)
	}
	if !reflect.DeepEqual(a.Fabric, b.Fabric) || !reflect.DeepEqual(a.Tenants[0].Analyses, b.Tenants[0].Analyses) {
		t.Fatal("the configs must share the fabric and the analysis list")
	}
	if pa, pb := paperTableI[a.Name], paperTableI[b.Name]; pa.SimTime <= pb.SimTime {
		t.Fatal("paper reference: doubling cores must halve sim time")
	}
}

// TestRunTableI: a Table I column comes from a pipeline run that wrote
// a checkpoint at its last step, a resume that read it back and a
// replay that reran the routes on it.
func TestRunTableI(t *testing.T) {
	cfg := loadExample(t, "table2-4896")
	// Shrink for test speed.
	cfg.Tenants[0].Sim = registry.SimConfig{NX: 24, NY: 16, NZ: 8, PX: 2, PY: 2, PZ: 1}
	const steps = 2
	row, err := RunTableI(cfg, steps, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Recovery != nil {
		t.Fatal("RunTableI must leave its config unchanged")
	}
	if row.SimStep <= 0 || row.Fresh.CheckpointWriteSeconds <= 0 || row.Resumed.CheckpointReadSeconds <= 0 ||
		row.ReplayRead <= 0 || row.ReplayAnalysis <= 0 || row.CoupledAnalysis <= 0 {
		t.Fatalf("timings not measured: %+v", row)
	}
	if r := row.Resumed; r.ResumedFrom != steps || r.CheckpointStep != steps {
		t.Fatalf("resume continued from %d off checkpoint %d, want both %d", r.ResumedFrom, r.CheckpointStep, steps)
	}
	wantBytes := int64(24 * 16 * 8 * 8 * len(sim.VarNames)) // payload lower bound
	if row.Fresh.CheckpointBytes < wantBytes {
		t.Fatalf("checkpoint too small: %d < %d", row.Fresh.CheckpointBytes, wantBytes)
	}
	if row.SimRanks != 4 || row.Volume != [3]int{24, 16, 8} || row.DSServers != 2 || row.Buckets != 2 {
		t.Fatalf("row does not describe its config: %+v", row)
	}
	// Modeled paper I/O must land on Table I's values.
	if s := row.ModeledPaperRead.Seconds(); s < 6.3 || s > 6.9 {
		t.Fatalf("modeled paper read %.2fs not ~6.56s", s)
	}
	if s := row.ModeledPaperWrite.Seconds(); s < 3.1 || s > 3.5 {
		t.Fatalf("modeled paper write %.2fs not ~3.28s", s)
	}
	out := FormatTableI([]*TableIRow{row})
	for _, want := range []string{"Simulation time", "I/O read time", "DataSpaces", "Analysis, coupled", "Post-processing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
	cfg.Name = "quickstart"
	if _, err := RunTableI(cfg, steps, t.TempDir()); err == nil {
		t.Fatal("a config with no paper column must error")
	}
}

// TestRunFig4: on the pipeline's own routes, the in-situ and hybrid
// statistics derive the same model, the hybrid route moves a fraction
// of the raw fields, and the flame's temperature is not normal.
func TestRunFig4(t *testing.T) {
	cfg := sim.DefaultConfig(grid.NewBox(24, 16, 8), 2, 2, 1)
	cfg.KernelRate = 1.0
	res, err := RunFig4(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fig4Vars {
		a, b := res.InSitu[v], res.Hybrid[v]
		if a.N != int64(cfg.Global.Size()) || a.N != b.N || !approxEq(a.Mean, b.Mean, 1e-12) || !approxEq(a.Variance, b.Variance, 1e-9) {
			t.Fatalf("%s: in-situ %+v, hybrid %+v", v, a, b)
		}
	}
	if res.MoveBytes <= 0 || res.MoveBytes >= res.RawBytes {
		t.Fatalf("hybrid route moved %d B of %d raw", res.MoveBytes, res.RawBytes)
	}
	if a := res.Assess; a.Assessed != int64(cfg.Global.Size()) || a.Extremes <= 0 || !a.Test.Reject {
		t.Fatalf("assess & test: %+v", a)
	}
	if !strings.Contains(res.Format(), "Jarque-Bera") {
		t.Fatal("Fig 4 output malformed")
	}
}

// approxEq compares within tol relative to the larger magnitude (at
// least 1).
func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestRunTableIIAndFig6(t *testing.T) {
	cfg := loadExample(t, "table2-4896")
	// Shrink for test speed.
	cfg.Tenants[0].Sim = registry.SimConfig{NX: 20, NY: 12, NZ: 8, PX: 2, PY: 2, PZ: 1}
	const steps = 2
	res, err := RunTableII(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimPerStep <= 0 {
		t.Fatal("sim time missing")
	}
	if len(res.Rows) != 8 {
		t.Fatalf("want 8 analysis rows (5 paper + 3 extensions), got %d", len(res.Rows))
	}
	// All five paper analyses must be matched to their reference rows.
	matched := 0
	for _, row := range res.Rows {
		if row.HasPaper {
			matched++
		}
		if row.Measured.InSitu <= 0 {
			t.Fatalf("%s: no in-situ time", row.Analysis)
		}
	}
	if matched != 5 {
		t.Fatalf("want 5 paper-matched rows, got %d", matched)
	}
	// Shape check: the topology route ships overlap-slab maxima, less
	// than the whole two-layer shells (KeepSharedBoundary) of the same
	// steps marshal to.
	var topo TableIIRow
	for _, row := range res.Rows {
		if row.Analysis == "hybrid topology" {
			topo = row
		}
	}
	sc := cfg.Tenants[0].Sim
	global := grid.NewBox(sc.NX, sc.NY, sc.NZ)
	s, err := sim.New(sim.DefaultConfig(global, sc.PX, sc.PY, sc.PZ))
	if err != nil {
		t.Fatal(err)
	}
	var shell atomic.Int64
	err = sim.RunAll(s, func(rk *sim.Rank) error {
		for step := 1; step <= steps; step++ {
			rk.Step()
			st, err := mergetree.LocalSubtree(rk.GhostedField("T"), global, rk.OwnedBox(), rk.Comm().ID(), mergetree.KeepSharedBoundary)
			if err != nil {
				return err
			}
			shell.Add(int64(st.MarshalSize()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if perStep := shell.Load() / steps; topo.Measured.MoveBytes <= 0 || topo.Measured.MoveBytes >= perStep {
		t.Fatalf("topology moved %d B a step, KeepSharedBoundary subtrees of the same steps are %d B: the in-situ stage does not reduce to overlap maxima", topo.Measured.MoveBytes, perStep)
	}
	out := res.Format()
	if !strings.Contains(out, "hybrid topology") {
		t.Fatalf("Table II output malformed:\n%s", out)
	}
	bars := res.Fig6Series()
	if len(bars) == 0 || bars[0].Label != "simulation" || bars[0].OfSimStep != 1 {
		t.Fatalf("Fig 6 series malformed: %+v", bars)
	}
	if !strings.Contains(FormatFig6(bars), "% of sim") {
		t.Fatal("Fig 6 output malformed")
	}
}

// TestRunFig2: on the pipeline's own routes, the in-transit frame
// drifts further from the in-situ one as the down-sampling factor
// grows while the route moves fewer bytes, and the sink's copies leave
// no pooled framebuffer out.
func TestRunFig2(t *testing.T) {
	before := render.ImagesOutstanding()
	res, err := RunFig2(sim.DefaultConfig(grid.NewBox(32, 24, 12), 2, 2, 1), 4, 64, 48, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := render.ImagesOutstanding(); got != before {
		t.Fatalf("%d pooled frames outstanding after the run, %d before", got, before)
	}
	d2, d8 := res.Rows[0], res.Rows[1]
	if !(d8.MeanAbsDiff > d2.MeanAbsDiff && d2.MeanAbsDiff > 0) {
		t.Fatalf("mean abs diff 2x %g, 8x %g: want 8x > 2x > 0", d2.MeanAbsDiff, d8.MeanAbsDiff)
	}
	if !(d8.MoveBytes < d2.MoveBytes && d8.MoveBytes > 0) {
		t.Fatalf("moved 2x %d B, 8x %d B: want 2x > 8x > 0", d2.MoveBytes, d8.MoveBytes)
	}
	if !strings.Contains(res.Format(), "mean abs diff") {
		t.Fatal("Fig 2 output malformed")
	}
}

func TestRunFig1CadenceSweep(t *testing.T) {
	cfg := sim.DefaultConfig(grid.NewBox(32, 16, 8), 2, 2, 1)
	cfg.KernelRate = 1.2 // plenty of events in a short run
	res, err := RunFig1(cfg, 30, 0.1, []int{1, 5, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 cadence rows, got %d", len(res.Rows))
	}
	r1, r30 := res.Rows[0], res.Rows[3]
	if r1.KernelsTotal == 0 {
		t.Fatal("no ignition kernels generated")
	}
	// Cadence 1 captures every kernel; cadence >> lifetime misses
	// most.
	if r1.KernelsCaptured != r1.KernelsTotal {
		t.Fatalf("cadence 1 must capture all kernels: %d/%d", r1.KernelsCaptured, r1.KernelsTotal)
	}
	if r30.KernelsCaptured >= r1.KernelsCaptured {
		t.Fatalf("coarse cadence should capture fewer kernels: %d vs %d",
			r30.KernelsCaptured, r1.KernelsCaptured)
	}
	// Connectivity: fine cadence tracks features across many steps.
	if r1.MeanMatches <= 0 {
		t.Fatal("cadence 1 must produce overlap matches")
	}
	if r1.LongestChain < 5 {
		t.Fatalf("cadence 1 should track features across steps, chain=%d", r1.LongestChain)
	}
	if !strings.Contains(res.Format(), "kernels captured") {
		t.Fatal("Fig 1 output malformed")
	}
	// Validation.
	if _, err := RunFig1(cfg, 4, 0.1, []int{0}); err == nil {
		t.Fatal("zero cadence must error")
	}
}
