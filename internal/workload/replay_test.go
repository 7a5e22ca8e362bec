package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"insitu/internal/core"
)

// TestReplayEqualsCoupledRun: the post-hoc reader is the pipeline's own
// routes run over a run's checkpoints. recovery.json (hybrid statistics
// and topology) and crashmatrix.json (hybrid viz and statistics, delta
// codec, admission plane) each run coupled and are then replayed from
// the checkpoints they wrote: at every checkpoint step that neither run
// degraded, every route's result digest is the coupled run's, bit for
// bit, and the journal directory is byte-identical afterwards.
func TestReplayEqualsCoupledRun(t *testing.T) {
	for _, name := range []string{"recovery", "crashmatrix"} {
		t.Run(name, func(t *testing.T) {
			cfg := loadExample(t, name)
			dir := t.TempDir()
			cfg.Recovery.Dir = dir
			steps, every := cfg.Steps, cfg.Recovery.Every
			run := func(mode core.RunMode) *core.Report {
				b := buildExample(t, cfg)
				reps, err := b.Run(steps, mode)
				if err != nil {
					t.Fatal(err)
				}
				return reps[""]
			}
			coupled := run(core.RunFresh)
			before := readDir(t, dir)
			replayed := run(core.RunReplay)
			if !reflect.DeepEqual(before, readDir(t, dir)) {
				t.Fatal("the replay changed the journal directory")
			}

			if len(coupled.Results) != len(cfg.Tenants[0].Analyses) {
				t.Fatalf("coupled run stored %d routes, the config has %d", len(coupled.Results), len(cfg.Tenants[0].Analyses))
			}
			for route := range coupled.Results {
				compared := 0
				for step := every; step <= steps; step += every {
					c, r := coupled.Result(route, step), replayed.Result(route, step)
					if _, ok := c.(core.Degraded); ok {
						continue
					}
					if _, ok := r.(core.Degraded); ok {
						continue
					}
					if c == nil || r == nil {
						t.Fatalf("%s step %d: coupled %v, replayed %v", route, step, c, r)
					}
					if dc, dr := core.ResultDigest(c), core.ResultDigest(r); dc != dr {
						t.Errorf("%s step %d: replay digest %s, coupled %s", route, step, dr, dc)
					}
					compared++
				}
				if compared == 0 {
					t.Errorf("%s: no checkpoint step left to compare", route)
				}
				t.Logf("%s: %d checkpoint steps equal", route, compared)
			}
		})
	}
}

// readDir maps every file in dir to its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
