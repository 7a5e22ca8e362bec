package workload

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"insitu/internal/registry"
)

// configsDir is the checked-in example-config directory, relative to
// this package (tests run in the package directory).
const configsDir = "../../examples/configs"

// examplePaths lists the checked-in example configs.
func examplePaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(configsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no example configs under %s", configsDir)
	}
	return paths
}

// loadExample loads one checked-in example config. Every scenario
// exists once, as that file: a test that needs a variant edits the
// loaded value before building it — a healthy twin is the config with
// Faults = nil (and fail_attempts = 0 on a poison route), a crash cell
// sets Recovery.Kill, a run that must not write under out/ points
// Store.Dir or Recovery.Dir at a temp directory.
func loadExample(t *testing.T, name string) *registry.Config {
	t.Helper()
	cfg, err := registry.LoadConfig(filepath.Join(configsDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// buildExample builds a (possibly edited) example config through the
// one construction path and closes it with the test.
func buildExample(t *testing.T, cfg *registry.Config) *registry.Built {
	t.Helper()
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestEveryAnalysisPlacementHasAnExample: every registered analysis, at
// every placement it supports, is declared by at least one checked-in
// example — so each is reachable from a config (there is no other way
// in), runs in TestExampleConfigDigestsGolden or a soak, and a newly
// registered analysis fails CI until an example names it.
func TestEveryAnalysisPlacementHasAnExample(t *testing.T) {
	declared := map[string]bool{}
	for _, path := range examplePaths(t) {
		cfg, err := registry.LoadConfig(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, tn := range cfg.Tenants {
			for _, ac := range tn.Analyses {
				pl := cmp.Or(ac.Params.Placement, registry.DefaultPlacement(ac.Analysis))
				declared[ac.Analysis+" / "+string(pl)] = true
			}
		}
	}
	for _, name := range registry.Names() {
		info, _ := registry.Lookup(name)
		for _, pl := range info.Placements {
			if key := name + " / " + string(pl); !declared[key] {
				t.Errorf("no config under %s declares %s", configsDir, key)
			}
		}
	}
}

// wholeFloat matches a whole-valued number a hand-written example
// spells with a trailing ".0" (quickstart.json's feature_threshold),
// which Marshal spells without.
var wholeFloat = regexp.MustCompile(`(\d)\.0(\D)`)

// TestExampleConfigsCanonical: every checked-in example strictly decodes
// and validates, and is its own canonical form — LoadConfig then Marshal
// reproduces the file byte for byte (up to that one number spelling), so
// the file states everything the loaded config holds, in the schema's
// order and spelling, and a hand edit that drifts from it fails CI.
func TestExampleConfigsCanonical(t *testing.T) {
	for _, path := range examplePaths(t) {
		cfg, err := registry.LoadConfig(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		got, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", path, err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wholeFloat.ReplaceAll(want, []byte("$1$2"))) {
			t.Errorf("%s is not in canonical form.\n--- file ---\n%s--- LoadConfig → Marshal ---\n%s", path, want, got)
		}
	}
}
