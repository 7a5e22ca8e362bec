package registry_test

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"insitu/internal/registry"
)

// TestBuildAllocatesLittle: a warm Build of a shipped config allocates
// under 32 KB, the cheapest of three builds. Build is what a run pays
// before its first step, so what it makes up front for traffic that may
// never come shows here: a results queue of 1024 Result values fails it
// ten times over.
func TestBuildAllocatesLittle(t *testing.T) {
	for _, name := range []string{"quickstart.json", "all-analyses.json"} {
		cfg, err := registry.LoadConfig(filepath.Join("../../examples/configs", name))
		if err != nil {
			t.Fatal(err)
		}
		build := func() {
			b, err := registry.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.Close()
		}
		build()
		least := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			build()
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("%s: a warm Build allocates %d B", name, least)
		if least >= 32<<10 {
			t.Errorf("%s: a warm Build allocates %d B, want < %d", name, least, 32<<10)
		}
	}
}
