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
				pl := cmp.Or(ac.Params.Placement, tn.Placement, registry.DefaultPlacement(ac.Analysis))
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

// pinned asserts a checked-in example file is byte-identical to the
// scenario config the soak tests build in Go, so `s3dpipe -config` runs
// exactly what `make tenants` / `make brownout` gate; drift in either
// direction fails CI.
func pinned(t *testing.T, file string, cfg *registry.Config) {
	t.Helper()
	want, err := cfg.Marshal()
	if err != nil {
		t.Fatalf("%s: marshal source config: %v", file, err)
	}
	got, err := os.ReadFile(filepath.Join(configsDir, file))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its code-generated source config.\nRegenerate it from Config.Marshal().\n--- file ---\n%s--- source ---\n%s",
			file, got, want)
	}
}

func TestTenantsExamplePinned(t *testing.T) {
	pinned(t, "tenants.json", TenantsConfig(true))
}

func TestBrownoutExamplePinned(t *testing.T) {
	pinned(t, "brownout.json", BrownoutConfig(true))
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

// TestScenarioConfigsRoundTrip: the scenario configs survive a
// marshal/parse round trip unchanged — what guarantees a user can dump
// them, edit, and reload without surprises.
func TestScenarioConfigsRoundTrip(t *testing.T) {
	for _, cfg := range []*registry.Config{
		TenantsConfig(true), TenantsConfig(false),
		BrownoutConfig(true), BrownoutConfig(false),
	} {
		data, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		back, err := registry.ParseConfig(data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", cfg.Name, err)
		}
		data2, err := back.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s does not round-trip:\n%s\nvs\n%s", cfg.Name, data, data2)
		}
	}
}
