package registry_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// runDigests builds the config, runs it, and digests every stored
// analysis result keyed by "name@step" — a whole run reduced to a
// comparable map.
func runDigests(t *testing.T, cfg *registry.Config) map[string]string {
	t.Helper()
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()
	steps := b.Steps(0, 4)
	rep, err := b.Pipeline.Run(steps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make(map[string]string)
	for _, a := range b.Tenants[0].Analyses {
		every := a.Every()
		if every < 1 {
			every = 1
		}
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

// TestLegacyFlagAndConfigFileRunsMatch is the equivalence acceptance
// test: the legacy flag path (LegacyOptions → Config) and the -config
// file path (Marshal → LoadConfig) must build pipelines whose runs
// produce identical result digests for every analysis at every step.
//
// The analysis set is restricted to those whose results are value
// types (stats, viz, assess) — the same restriction the crash matrix
// applies — because ResultDigest formats nested pointers inside
// results (contingency's *stats.Contingency) as addresses, which
// differ between any two runs regardless of construction path.
// Topology results are digested by value; see
// TestTopologyDigestsStableAcrossRuns.
func TestLegacyFlagAndConfigFileRunsMatch(t *testing.T) {
	opts := registry.LegacyOptions{
		NX: 16, NY: 12, NZ: 8,
		PX: 2, PY: 1, PZ: 1,
		Steps: 4, Every: 1, SubSteps: 1,
		Buckets: 2, Servers: 2,
		StatsMode: "both", VizMode: "both",
		Assess: true,
		Factor: 4,
		Seed:   1,
	}
	fromFlags, err := opts.Config()
	if err != nil {
		t.Fatalf("LegacyOptions.Config: %v", err)
	}

	// Round-trip through the file format, exactly like -dump-config
	// followed by -config.
	data, err := fromFlags.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := registry.LoadConfig(path)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}

	flagRun := runDigests(t, fromFlags)
	fileRun := runDigests(t, fromFile)

	if len(flagRun) != len(fileRun) {
		t.Fatalf("result counts differ: flags %d, file %d", len(flagRun), len(fileRun))
	}
	for key, want := range flagRun {
		got, ok := fileRun[key]
		if !ok {
			t.Errorf("config-file run missing result %s", key)
			continue
		}
		if got != want {
			t.Errorf("digest mismatch at %s: flags %s, file %s", key, want, got)
		}
	}
}

// TestTopologyDigestsStableAcrossRuns: a topology result is digested by
// value (sorted arcs, stream stats, features), not by the heap
// addresses of its tree nodes, so two independent runs of the same
// config agree digest for digest — what lets the journal's commit
// digests and the golden files cover topology at all.
func TestTopologyDigestsStableAcrossRuns(t *testing.T) {
	cfg := func() *registry.Config {
		c, err := registry.LegacyOptions{
			NX: 16, NY: 12, NZ: 8,
			PX: 2, PY: 1, PZ: 1,
			Steps: 3, Every: 1, SubSteps: 1,
			Buckets: 2, Servers: 2,
			StatsMode: "off", VizMode: "off",
			Topology: true,
			Seed:     1,
		}.Config()
		if err != nil {
			t.Fatalf("LegacyOptions.Config: %v", err)
		}
		return c
	}
	first, second := runDigests(t, cfg()), runDigests(t, cfg())
	if len(first) != 3 {
		t.Fatalf("want 3 topology results, got %d: %v", len(first), first)
	}
	for key, want := range first {
		if got := second[key]; got != want {
			t.Errorf("digest of %s differs between two runs: %s vs %s", key, want, got)
		}
	}
}

// TestBuildSingleTenantShape pins what Build wires up for one tenant:
// a Pipeline (no Scheduler), analyses in config order, and the hybrid
// route list.
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

	if b.Pipeline == nil || b.Scheduler != nil {
		t.Fatalf("single-tenant build: Pipeline=%v Scheduler=%v", b.Pipeline, b.Scheduler)
	}
	if len(b.Tenants) != 1 {
		t.Fatalf("len(Tenants) = %d, want 1", len(b.Tenants))
	}
	tn := b.Tenants[0]
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
		t.Fatalf("multi-tenant build: Pipeline=%v Scheduler=%v", b.Pipeline, b.Scheduler)
	}
	if len(b.Tenants) != 2 || b.Tenants[0].Name != "a" || b.Tenants[1].Name != "b" {
		t.Fatalf("Tenants = %+v, want a then b", b.Tenants)
	}

	reps, err := b.Scheduler.Run(b.Steps(0, 2))
	if err != nil {
		t.Fatalf("Scheduler.Run: %v", err)
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
