package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/netsim"
	"insitu/internal/overload"
	"insitu/internal/registry"
	"insitu/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run's result digests")

// reportDigests reduces a run to one "analysis@step digest" line per
// stored result, sorted — the form the golden files hold.
func reportDigests(analyses []core.Analysis, rep *core.Report, steps int) string {
	var lines []string
	for _, a := range analyses {
		every := max(a.Every(), 1)
		for s := every; s <= steps; s += every {
			if v := rep.Result(a.Name(), s); v != nil {
				lines = append(lines, fmt.Sprintf("%s@%d %s\n", a.Name(), s, core.ResultDigest(v)))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestExampleConfigDigestsGolden pins the full result-digest map of the
// single-tenant example configs: every analysis result at every step
// must hash to what testdata/<config>.golden records, so a change that
// is meant to move code proves it changed nothing that runs.
// all-analyses covers every registered analysis at every placement
// (TestEveryAnalysisPlacementHasAnExample). Only the store and journal
// directories are substituted (with temp dirs).
func TestExampleConfigDigestsGolden(t *testing.T) {
	for _, name := range []string{"quickstart", "store-serve", "recovery", "all-analyses", "crashmatrix"} {
		t.Run(name, func(t *testing.T) {
			cfg := loadExample(t, name)
			if cfg.Store != nil {
				cfg.Store.Dir, cfg.Store.Serve = t.TempDir(), ""
			}
			if cfg.Recovery != nil {
				cfg.Recovery.Dir = t.TempDir()
			}
			b := buildExample(t, cfg)
			steps := b.Steps(0, 4)
			rep, err := b.Pipeline.Run(steps)
			if err != nil {
				t.Fatal(err)
			}
			got := reportDigests(b.Tenants[0].Analyses, rep, steps)

			golden := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("result digests drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestSoloTenantUnderSchedulerMatchesPipeline: one tenant declared
// alone under core.Scheduler produces the same result digests as the
// same simulation and analyses under core.Pipeline with the same
// overload block — the two entry points share one fabric and one run
// engine. The simulation and the two hybrid routes are brownout.json's;
// thresholds are raised as in benchmark/configs/tenants-shared.json so
// the armed overload plane never trips and every step runs at full
// fidelity. A config cannot declare a lone tenant under the scheduler
// (registry.Build gives one tenant a Pipeline), which is why this one
// workload test calls core's constructors itself.
func TestSoloTenantUnderSchedulerMatchesPipeline(t *testing.T) {
	const steps = 12
	tenant := loadExample(t, "brownout").Tenants[0]
	sc := tenant.Sim
	simCfg := sim.DefaultConfig(grid.NewBox(sc.NX, sc.NY, sc.NZ), sc.PX, sc.PY, sc.PZ)
	simCfg.SubSteps = sc.SubSteps
	ov := &overload.Config{
		Breaker: overload.BreakerConfig{
			FailureThreshold: 3, LatencyThreshold: time.Second,
			LatencyAlpha: 0.5, Cooldown: 2 * time.Millisecond,
		},
		Ladder:          overload.LadderConfig{QueueHigh: 48, QueueLow: 16, DegradeAfter: 1, RecoverAfter: 2},
		QueueBound:      64,
		ProbeLatencyMax: 50 * time.Microsecond,
	}
	analyses := func(reg func(core.Analysis)) []core.Analysis {
		var out []core.Analysis
		for _, ac := range tenant.Analyses {
			a, err := registry.New(ac.Analysis, ac.Params)
			if err != nil {
				t.Fatal(err)
			}
			reg(a)
			out = append(out, a)
		}
		return out
	}

	p, err := core.NewPipeline(core.Config{
		Sim: simCfg, DSServers: 2, Buckets: 2, Net: netsim.Gemini(), Overload: ov,
	})
	if err != nil {
		t.Fatal(err)
	}
	pa := analyses(p.Register)
	prep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	s, err := core.NewScheduler(core.SchedulerConfig{
		DSServers: 2, Buckets: 2, Net: netsim.Gemini(), QueueBound: 64, TenantReserve: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := s.AddTenant("solo", core.TenantConfig{Sim: simCfg, Overload: ov})
	if err != nil {
		t.Fatal(err)
	}
	sa := analyses(tp.Register)
	reps, err := s.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	want, got := reportDigests(pa, prep, steps), reportDigests(sa, reps["solo"], steps)
	if want == "" {
		t.Fatal("pipeline run stored no results")
	}
	if got != want {
		t.Errorf("scheduler-run digests differ from the pipeline's\n--- pipeline ---\n%s--- scheduler ---\n%s", want, got)
	}
}

// metricFamilies reduces a Prometheus text dump to its schema: one
// "# TYPE" line per family and one "name{label keys}" line per distinct
// sample shape, sorted. Values and label values are dropped.
func metricFamilies(dump string) string {
	seen := map[string]bool{}
	for _, line := range strings.Split(dump, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP"):
			continue
		case strings.HasPrefix(line, "# TYPE"):
			seen[line] = true
			continue
		}
		sample, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(sample, "{")
		var keys []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), `",`) {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		seen[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricFamiliesGolden pins the /metrics schema of one standalone
// and one scheduler run: every family name, its type and the label keys
// of its samples. Dashboards and the benchmark key on these names, so a
// change that moves where families are registered proves here that it
// renamed nothing.
func TestMetricFamiliesGolden(t *testing.T) {
	for _, name := range []string{"quickstart", "tenants"} {
		t.Run(name, func(t *testing.T) {
			b := buildExample(t, loadExample(t, name))
			pl := b.Tenants[0].Pipeline.EnableObs()
			// The tenants drill ends with its poison route's errors; the
			// schema is what is pinned here, not the run's outcome.
			b.Run(4, false)
			var sb strings.Builder
			if err := pl.Registry().WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			got := metricFamilies(sb.String())

			golden := filepath.Join("testdata", name+".metrics.golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("/metrics schema drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
