package registry_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/faults"
	"insitu/internal/registry"
	// Registers the "poison" drill analysis that
	// examples/configs/tenants.json names.
	_ "insitu/internal/workload"
)

// runDigests builds the single-tenant config, runs it, and digests
// every stored analysis result keyed by "name@step" — a whole run
// reduced to a comparable map.
func runDigests(t *testing.T, cfg *registry.Config) map[string]string {
	t.Helper()
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()
	steps := b.Steps(0, 4)
	reps, err := b.Run(steps, core.RunFresh)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := reps[b.Tenants[0].Name]
	out := make(map[string]string)
	for _, a := range b.Tenants[0].Analyses {
		every := max(a.Every(), 1)
		for s := every; s <= steps; s += every {
			if v := rep.Result(a.Name(), s); v != nil {
				out[fmt.Sprintf("%s@%d", a.Name(), s)] = core.ResultDigest(v)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("run stored no results")
	}
	return out
}

// smallConfig declares a quick single-tenant run of the given analyses.
func smallConfig(analyses ...registry.AnalysisConfig) *registry.Config {
	buckets := 2
	return &registry.Config{
		Steps:  3,
		Fabric: registry.FabricConfig{DSServers: 2, Buckets: &buckets, Net: registry.NetConfig{Profile: "gemini"}},
		Tenants: []registry.TenantConfig{{
			Sim:      registry.SimConfig{NX: 16, NY: 12, NZ: 8, PX: 2, PY: 1, PZ: 1, Seed: 1},
			Analyses: analyses,
		}},
	}
}

// sameDigests fails the test for every key whose digest differs between
// the two runs, or that only one of them has.
func sameDigests(t *testing.T, what string, first, second map[string]string) {
	t.Helper()
	if len(first) != len(second) {
		t.Errorf("%s: result counts differ: %d vs %d", what, len(first), len(second))
	}
	for key, want := range first {
		if got, ok := second[key]; !ok || got != want {
			t.Errorf("%s: digest of %s differs: %s vs %q", what, key, want, got)
		}
	}
}

// TestConfigFileRoundTripRunsMatch: a config written in Go and the same
// config after Marshal → file → LoadConfig build pipelines whose runs
// produce identical result digests for every analysis at every step —
// the file format loses nothing a run depends on.
func TestConfigFileRoundTripRunsMatch(t *testing.T) {
	an := func(name string, p registry.Params) registry.AnalysisConfig {
		return registry.AnalysisConfig{Analysis: name, Params: p}
	}
	inGo := smallConfig(
		an("stats", registry.Params{Placement: registry.PlaceInSitu, Every: 1}),
		an("stats", registry.Params{Placement: registry.PlaceHybrid, Vars: []string{"T", "Y_OH"}}),
		an("viz", registry.Params{Placement: registry.PlaceInSitu, Width: 40, Height: 30, Cameras: 2}),
		an("viz", registry.Params{Placement: registry.PlaceHybrid, Width: 40, Height: 30, Factor: 4}),
		an("assess", registry.Params{Sigma: 2.5}),
		an("contingency", registry.Params{XBins: 6, YBins: 5}),
		an("autocorr", registry.Params{Lags: []int{1, 2}}),
	)
	data, err := inGo.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := registry.LoadConfig(path)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	sameDigests(t, "in-Go vs file", runDigests(t, inGo), runDigests(t, fromFile))
}

// TestResultDigestsStableAcrossRuns: for every registered analysis at
// every placement it supports, two independent runs of the same config
// agree digest for digest. Results are digested by value (a topology
// result by its sorted arcs, a contingency result by its encoded
// table), never by heap address — what lets the journal's commit
// digests and the golden files cover every analysis.
func TestResultDigestsStableAcrossRuns(t *testing.T) {
	// The parameters without which an analysis's default run is slow or
	// has nothing to find on this small grid.
	params := map[string]registry.Params{
		"viz":          {Width: 40, Height: 30},
		"topology":     {SimplifyEps: 0.05, FeatureThreshold: 1},
		"featurestats": {Threshold: 1},
		"tracking":     {Threshold: 0.05},
	}
	for _, name := range registry.Names() {
		info, _ := registry.Lookup(name)
		for _, placement := range info.Placements {
			t.Run(name+"/"+string(placement), func(t *testing.T) {
				p := params[name]
				p.Placement = placement
				cfg := func() *registry.Config {
					return smallConfig(registry.AnalysisConfig{Analysis: name, Params: p})
				}
				first, second := runDigests(t, cfg()), runDigests(t, cfg())
				if len(first) != 3 {
					t.Fatalf("want 3 results, got %d: %v", len(first), first)
				}
				sameDigests(t, "two runs", first, second)
			})
		}
	}
}

// TestBuildSingleTenantShape pins what Build wires up for one tenant:
// a Scheduler whose lone tenant is Built.Pipeline, analyses in config
// order, and the hybrid route list.
func TestBuildSingleTenantShape(t *testing.T) {
	buckets := 2
	cfg := &registry.Config{
		Fabric: registry.FabricConfig{Buckets: &buckets},
		Tenants: []registry.TenantConfig{{
			Sim: registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "assess", Params: registry.Params{Sigma: 3}},
				{Analysis: "stats", Params: registry.Params{Placement: registry.PlaceHybrid}},
				{Analysis: "viz", Params: registry.Params{
					Placement: registry.PlaceHybrid, Width: 20, Height: 16, Factor: 2,
				}},
			},
		}},
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()

	if len(b.Tenants) != 1 {
		t.Fatalf("len(Tenants) = %d, want 1", len(b.Tenants))
	}
	tn := b.Tenants[0]
	if b.Scheduler == nil || b.Pipeline == nil || b.Pipeline != tn.Pipeline {
		t.Fatalf("single-tenant build: Scheduler=%p Pipeline=%p, tenant's %p", b.Scheduler, b.Pipeline, tn.Pipeline)
	}
	if len(tn.Analyses) != 3 {
		t.Fatalf("len(Analyses) = %d, want 3", len(tn.Analyses))
	}
	// assess is in-situ-only: not a hybrid route. stats and viz hybrid
	// stage payloads across the fabric, in registration order.
	want := []string{tn.Analyses[1].Name(), tn.Analyses[2].Name()}
	if len(tn.Routes) != len(want) || tn.Routes[0] != want[0] || tn.Routes[1] != want[1] {
		t.Errorf("Routes = %v, want %v", tn.Routes, want)
	}
}

// TestBuildMultiTenantShape: several tenants build a Scheduler with
// one pipeline per tenant, and the built topology runs.
func TestBuildMultiTenantShape(t *testing.T) {
	buckets := 2
	tenant := func(name string) registry.TenantConfig {
		return registry.TenantConfig{
			Name: name,
			Sim:  registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "stats", Params: registry.Params{Placement: registry.PlaceHybrid}},
			},
		}
	}
	cfg := &registry.Config{
		Steps: 2,
		Fabric: registry.FabricConfig{
			Buckets: &buckets,
			Net:     registry.NetConfig{Profile: "gemini", TimeScale: 0.1},
		},
		Tenants: []registry.TenantConfig{tenant("a"), tenant("b")},
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()

	if b.Scheduler == nil || b.Pipeline != nil {
		t.Fatalf("multi-tenant build: Scheduler=%p Pipeline=%p, want a scheduler and no lone pipeline", b.Scheduler, b.Pipeline)
	}
	if len(b.Tenants) != 2 || b.Tenants[0].Name != "a" || b.Tenants[1].Name != "b" {
		t.Fatalf("Tenants = %+v, want a then b", b.Tenants)
	}

	reps, err := b.Run(b.Steps(0, 2), core.RunFresh)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, name := range []string{"a", "b"} {
		rep := reps[name]
		if rep == nil {
			t.Fatalf("tenant %q produced no report", name)
		}
		if rep.Result(b.Tenants[0].Analyses[0].Name(), 2) == nil {
			t.Errorf("tenant %q has no stats result at step 2", name)
		}
	}
}

// exampleConfig loads one of examples/configs.
func exampleConfig(t *testing.T, name string) *registry.Config {
	t.Helper()
	cfg, err := registry.LoadConfig(filepath.Join("..", "..", "examples", "configs", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBuildRegistersNoRankEndpoint: construction is lazy for every
// tenant alike — Build registers no simulation-rank endpoint (each one
// exports its own dart_endpoint_* series, so /metrics shows them); Run
// does, on first use. A tenant-scoped fault window is such a use, so
// tenants.json is built without its schedule.
func TestBuildRegistersNoRankEndpoint(t *testing.T) {
	for _, name := range []string{"quickstart", "tenants"} {
		cfg := exampleConfig(t, name)
		cfg.Faults = nil
		b, err := registry.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		rankSeries := func() (n int) {
			var sb strings.Builder
			if err := b.Scheduler.EnableObs().Registry().WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(sb.String(), "\n") {
				if strings.HasPrefix(line, "dart_endpoint_transfer_bytes_total{") && strings.Contains(line, "sim-") {
					n++
				}
			}
			return n
		}
		if n := rankSeries(); n != 0 {
			t.Fatalf("%s: Build registered %d rank endpoints before Run", name, n)
		}
		b.Run(1, core.RunFresh) // the tenants drill's poison route fails by design
		want := 0
		for _, tn := range b.Tenants {
			want += tn.Pipeline.Sim().Ranks()
		}
		if n := rankSeries(); n != want {
			t.Fatalf("%s: Run registered %d rank endpoints, want %d", name, n, want)
		}
	}
}

// TestTenantScopedSlowdownResolves: tenants.json scopes its slowdown
// window to gamma, which Build resolves to gamma's rank endpoint ids
// (registering the fabric's rank endpoints on that first use). Inside
// the window the injector slows a transfer exactly when it touches one
// of them.
func TestTenantScopedSlowdownResolves(t *testing.T) {
	cfg := exampleConfig(t, "tenants")
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w := cfg.Faults.Slowdowns[0]
	scoped := map[int]bool{}
	for _, ep := range b.Scheduler.TenantEndpoints(w.Tenant) {
		scoped[ep.ID()] = true
	}
	if want := b.Scheduler.Tenant(w.Tenant).Sim().Ranks(); len(scoped) != want {
		t.Fatalf("tenant %s has %d endpoint ids, want %d", w.Tenant, len(scoped), want)
	}
	maxID := 0
	for _, tn := range cfg.Tenants {
		for _, ep := range b.Scheduler.TenantEndpoints(tn.Name) {
			if tn.Name != w.Tenant && scoped[ep.ID()] {
				t.Fatalf("endpoint %d belongs to both %s and %s", ep.ID(), tn.Name, w.Tenant)
			}
			maxID = max(maxID, ep.ID())
		}
	}
	inj := b.Scheduler.Network().Faults()
	for i := 0; i < w.From; i++ {
		inj.Decide(-1, -1, 0, 0)
	}
	if maxID >= w.Until-w.From {
		t.Fatalf("window [%d, %d) too short to probe %d endpoint ids", w.From, w.Until, maxID+1)
	}
	for id := 0; id <= maxID; id++ {
		if slowed := inj.Decide(id, -1, 0, 0).Kind == faults.Slowdown; slowed != scoped[id] {
			t.Errorf("endpoint %d: slowed=%v, want %v (%s's ids: %v)", id, slowed, scoped[id], w.Tenant, scoped)
		}
	}
}

// TestBuildRejectsInvalidConfig: Build re-validates, so a config
// assembled in Go (never parsed) still cannot construct a bad
// topology.
func TestBuildRejectsInvalidConfig(t *testing.T) {
	cfg := &registry.Config{
		Tenants: []registry.TenantConfig{{
			Sim: registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
			Analyses: []registry.AnalysisConfig{
				{Analysis: "no-such-analysis"},
			},
		}},
	}
	if _, err := registry.Build(cfg); !errors.Is(err, registry.ErrUnknownAnalysis) {
		t.Fatalf("Build = %v, want ErrUnknownAnalysis", err)
	}
}

// TestResultsNeverAliasSimStorage: a run's stored results are copies,
// never views of the simulation state the ranks release when their
// loops end. Run A stores every registered analysis at every placement
// it supports; run B, a fresh build of the same grid with another seed,
// then draws and overwrites A's released rank storage. Every result A
// stored must digest as it did before B ran.
func TestResultsNeverAliasSimStorage(t *testing.T) {
	params := map[string]registry.Params{
		"viz":          {Width: 40, Height: 30},
		"topology":     {SimplifyEps: 0.05, FeatureThreshold: 1},
		"featurestats": {Threshold: 1},
		"tracking":     {Threshold: 0.05},
	}
	var analyses []registry.AnalysisConfig
	for _, name := range registry.Names() {
		info, _ := registry.Lookup(name)
		for _, placement := range info.Placements {
			p := params[name]
			p.Placement = placement
			analyses = append(analyses, registry.AnalysisConfig{Analysis: name, Params: p})
		}
	}
	run := func(seed int64) *core.Report {
		cfg := smallConfig(analyses...)
		cfg.Tenants[0].Sim.Seed = seed
		b, err := registry.Build(cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer b.Close()
		reps, err := b.Run(b.Steps(0, 4), core.RunFresh)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return reps[b.Tenants[0].Name]
	}
	digests := func(rep *core.Report) map[string]string {
		out := make(map[string]string)
		for name, byStep := range rep.Results {
			for step, v := range byStep {
				out[fmt.Sprintf("%s@%d", name, step)] = core.ResultDigest(v)
			}
		}
		return out
	}
	a := run(1)
	before := digests(a)
	if len(before) < len(analyses) {
		t.Fatalf("run A stored %d results for %d analyses", len(before), len(analyses))
	}
	t.Logf("%d analyses, %d results", len(analyses), len(before))
	run(2)
	sameDigests(t, "run A before and after run B", before, digests(a))
}
