package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the exporter golden files")

// fixturePlane builds the fixed synthetic timeline the exporter goldens
// render: a deterministic anchor, one span per category, a parent/child
// pair, an instant event, and one instrument of each kind.
func fixturePlane() *Plane {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	pl := &Plane{rec: NewRecorderAt(t0), reg: NewRegistry()}
	rec := pl.Recorder()

	rec.Record(0, CatSim, "sim", "sim.step", t0, t0.Add(2*time.Millisecond), Int("step", 1))
	get := rec.Record(0, CatDart, "sim-0", "dart.get",
		t0.Add(500*time.Microsecond), t0.Add(900*time.Microsecond),
		Str("region", "0/1"), Int("bytes", 4096), Int("attempts", 2),
		Dur("modeled", 250*time.Microsecond))
	rec.Event(get, CatDart, "sim-0", "dart.retry", t0.Add(700*time.Microsecond),
		Str("op", "get"), Int("attempt", 1))
	rec.Event(0, CatTask, "queue", "task.submit", t0.Add(time.Millisecond),
		Int64("task", 1), Str("analysis", "hybrid statistics"), Int("step", 1))
	rec.Record(0, CatTask, "bucket-0", "task.attempt",
		t0.Add(1200*time.Microsecond), t0.Add(1800*time.Microsecond),
		Int64("task", 1), Str("outcome", "ok"))
	rec.Event(0, CatAdmit, "overload", "admit", t0.Add(1100*time.Microsecond),
		Str("analysis", "hybrid statistics"), Str("level", "full"), Bool("credited", true))

	reg := pl.Registry()
	reg.Counter("dart_gets_total", "completed one-sided reads by result", Str("result", "ok")).Add(3)
	reg.Counter("dart_gets_total", "completed one-sided reads by result", Str("result", "error")).Inc()
	reg.GaugeFunc("dataspaces_queue_depth", "tasks waiting for a bucket", func() float64 { return 2 })
	reg.GaugeFunc("credits_available", "flow-control credits currently grantable", func() float64 { return 7 })
	h := reg.Histogram("dart_transfer_modeled_seconds", "modeled transfer duration", []float64{1e-6, 1e-3, 1})
	h.Observe(5e-4)
	h.Observe(2)
	return pl
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run Golden -update): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	pl := fixturePlane()
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, pl.Recorder()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The golden must stay loadable: Chrome trace JSON is a plain JSON
	// object with a traceEvents array.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	checkGolden(t, "chrome.json", []byte(out))
}

func TestGoldenJSONL(t *testing.T) {
	pl := fixturePlane()
	var sb strings.Builder
	if err := WriteJSONL(&sb, pl.Recorder()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line %d does not parse: %v", i+1, err)
		}
	}
	checkGolden(t, "events.jsonl", []byte(out))
}

func TestGoldenPrometheus(t *testing.T) {
	pl := fixturePlane()
	var sb strings.Builder
	if err := pl.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", []byte(sb.String()))
}

// TestExportDeterministic re-renders the same plane twice; the exports
// must be byte-identical (deterministic IDs, sorted families/labels).
func TestExportDeterministic(t *testing.T) {
	pl := fixturePlane()
	render := func() string {
		var sb strings.Builder
		if err := WriteChromeTrace(&sb, pl.Recorder()); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&sb, pl.Recorder()); err != nil {
			t.Fatal(err)
		}
		if err := pl.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render() != render() {
		t.Fatal("re-rendering the same plane produced different bytes")
	}
}
