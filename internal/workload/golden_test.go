package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/faults"
	"insitu/internal/imagestore"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"
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
			checkGolden(t, name+".golden", "result digests", reportDigests(b.Tenants[0].Analyses, rep, steps))
		})
	}
}

// TestExampleConfigFramesSameWithOrWithoutStore: every rendered frame
// leaves a run through its frame sink — the image store when the config
// has one, the digest-only sink otherwise — so an example's results are
// the same either way, each frame ref names the digest the store filed
// it under, and neither run keeps a pooled framebuffer. Results are
// compared by ResultDigest, as the goldens are: every digest is a
// function of the config, and it compares what a result holds behind
// its pointers by value. Frame results are compared with DeepEqual.
func TestExampleConfigFramesSameWithOrWithoutStore(t *testing.T) {
	for _, name := range []string{"quickstart", "all-analyses", "crashmatrix", "store-serve"} {
		t.Run(name, func(t *testing.T) {
			run := func(store bool) (*core.Report, *registry.Built) {
				cfg := loadExample(t, name)
				cfg.Store = nil
				if store {
					cfg.Store = &registry.StoreConfig{Dir: t.TempDir()}
				}
				if cfg.Recovery != nil {
					cfg.Recovery.Dir = t.TempDir()
				}
				b := buildExample(t, cfg)
				before := render.ImagesOutstanding()
				rep, err := b.Pipeline.Run(b.Steps(0, 4))
				if err != nil {
					t.Fatal(err)
				}
				if leaked := render.ImagesOutstanding() - before; leaked != 0 {
					t.Errorf("store %v: %d pooled framebuffers outstanding after the run", store, leaked)
				}
				return rep, b
			}
			bare, _ := run(false)
			stored, b := run(true)
			analyses, steps := b.Tenants[0].Analyses, b.Steps(0, 4)
			if with, without := reportDigests(analyses, stored, steps), reportDigests(analyses, bare, steps); with != without {
				t.Fatalf("results differ with and without an image store\n--- with ---\n%s--- without ---\n%s", with, without)
			}
			frames := 0
			for route, byStep := range stored.Results {
				for step, res := range byStep {
					out := res
					if d, ok := out.(core.Degraded); ok {
						out = d.Value
					}
					switch out.(type) {
					case *render.Image, *render.FrameSet:
						t.Fatalf("%s@%d kept a framebuffer: %T", route, step, out)
					}
					refs, _ := out.([]core.FrameRef)
					if len(refs) > 0 && !reflect.DeepEqual(res, bare.Result(route, step)) {
						t.Fatalf("%s@%d: %v with a store, %v without", route, step, res, bare.Result(route, step))
					}
					for _, ref := range refs {
						frames++
						if _, digest, err := b.Store.Frame(imagestore.Spec{Var: ref.Var, Step: ref.Step, Cam: ref.Cam}); err != nil || digest != ref.Digest {
							t.Fatalf("ref %+v: store has digest %q (%v)", ref, digest, err)
						}
					}
				}
			}
			if frames == 0 {
				t.Fatal("the run rendered no frames")
			}
		})
	}
}

// checkGolden compares got against testdata/<file>, or rewrites the
// file under -update.
func checkGolden(t *testing.T, file, what, got string) {
	t.Helper()
	golden := filepath.Join("testdata", file)
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
		t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", what, golden, got, want)
	}
}

// metricFamilies reduces a Prometheus text dump to its schema: one
// "# TYPE" line per family and one "name{label keys}" line per distinct
// sample shape, sorted. Values, label values and the label keys named
// in drop are left out.
func metricFamilies(dump string, drop ...string) string {
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
			if k, _, ok := strings.Cut(kv, "="); ok && !slices.Contains(drop, k) {
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

// spanTaxonomy reduces a recorder to the sorted distinct "category lane
// name" triples it holds, with every digit run in a lane folded to N
// (bucket-0 and bucket-1 are one lane kind).
func spanTaxonomy(rec *obs.Recorder) string {
	digits := regexp.MustCompile(`[0-9]+`)
	seen := map[string]bool{}
	for _, s := range rec.Spans() {
		seen[s.Cat+" "+digits.ReplaceAllString(s.Lane, "N")+" "+s.Name] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricFamiliesGolden pins the /metrics schema of a one-tenant, a
// three-tenant and a store-serve run: every family name, its type and
// the label keys of its samples, and the one-tenant run's span taxonomy
// (spanTaxonomy), so a second record of one fact cannot come back
// unseen. Dashboards and the benchmark key on these names, so a change
// that moves where families are registered proves here that it renamed
// nothing. The store-serve run wires the image store and the serving
// tier onto the plane as s3dpipe does. The schema is stable across
// configurations and outcomes: the one- and three-tenant runs export
// the same families, their label keys differ only by the `tenant` key a
// named tenant's families carry, and a one-tenant run whose every task
// dead-letters exports exactly the clean run's schema.
func TestMetricFamiliesGolden(t *testing.T) {
	schema := func(t *testing.T, cfg *registry.Config, wire func(*registry.Built, *obs.Plane)) (*obs.Plane, map[string]*core.Report, string) {
		t.Helper()
		b := buildExample(t, cfg)
		pl := b.Scheduler.EnableObs()
		if wire != nil {
			wire(b, pl)
		}
		// The tenants drill ends with its poison route's errors; the
		// schema is what is pinned here, not the run's outcome.
		reps, _ := b.Run(4, core.RunFresh)
		var sb strings.Builder
		if err := pl.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return pl, reps, sb.String()
	}
	untenanted := map[string]string{}
	for _, name := range []string{"quickstart", "tenants", "store-serve"} {
		t.Run(name, func(t *testing.T) {
			cfg := loadExample(t, name)
			var wire func(*registry.Built, *obs.Plane)
			if cfg.Store != nil {
				cfg.Store.Dir, cfg.Store.Serve = t.TempDir(), ""
				wire = func(b *registry.Built, pl *obs.Plane) {
					b.Store.PublishTo(pl.Registry())
					serve.New(b.Store).PublishTo(pl.Registry())
				}
			}
			pl, _, dump := schema(t, cfg, wire)
			untenanted[name] = metricFamilies(dump, "tenant")
			checkGolden(t, name+".metrics.golden", "/metrics schema", metricFamilies(dump))
			// Which of the tenants drill's events fire depends on timing,
			// so only the one-tenant run pins its span taxonomy.
			if name == "quickstart" {
				checkGolden(t, name+".spans.golden", "span taxonomy", spanTaxonomy(pl.Recorder()))
			}
		})
	}
	// Dropping the tenant key from every sample shape must make the two
	// schemas identical.
	if one, many := untenanted["quickstart"], untenanted["tenants"]; one != many {
		t.Errorf("the one-tenant and three-tenant /metrics schemas differ by more than the tenant label\n--- quickstart ---\n%s--- tenants ---\n%s", one, many)
	}
	// A run whose every pull drops dead-letters every task; its schema
	// is still the clean run's.
	t.Run("quickstart-dead-letters", func(t *testing.T) {
		cfg := loadExample(t, "quickstart")
		_, reps, dump := schema(t, cfg, func(b *registry.Built, _ *obs.Plane) {
			b.Scheduler.Network().SetFaults(faults.New(faults.Config{Default: faults.Rates{Drop: 1}}))
		})
		if n := reps[""].Resilience.DeadLetters; n == 0 {
			t.Fatal("no task dead-lettered under a fabric that drops every pull")
		}
		clean, err := os.ReadFile(filepath.Join("testdata", "quickstart.metrics.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := metricFamilies(dump); got != string(clean) {
			t.Errorf("dead letters changed the /metrics schema\n--- got ---\n%s--- clean run ---\n%s", got, clean)
		}
	})
}
