package obs_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/registry"
)

// runInstrumented runs examples/configs/quickstart.json with the
// observability plane attached and returns the plane plus the pipeline
// for /status.
func runInstrumented(t *testing.T) (*obs.Plane, *core.Scheduler) {
	t.Helper()
	cfg, err := registry.LoadConfig("../../examples/configs/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	pl := b.Scheduler.EnableObs()
	if _, err := b.Run(cfg.Steps, core.RunFresh); err != nil {
		t.Fatal(err)
	}
	return pl, b.Scheduler
}

func get(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestObsEndpoint(t *testing.T) {
	pl, s := runInstrumented(t)
	srv := httptest.NewServer(obs.Handler(pl, func() any { return s.Status() }))
	defer srv.Close()

	// /metrics carries the acceptance series even on an un-faulted,
	// credit-less run (funcs read zero).
	metrics := string(get(t, srv, "/metrics"))
	for _, want := range []string{
		"dart_transfer_bytes_total",
		"dart_endpoint_retries_total",
		"credits_available",
		"credits_total",
		"admission_decisions_total",
		"dataspaces_queue_depth",
		"pipeline_tasks_submitted_total",
		"pipeline_step_wall_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every sample line is `name value`: the dump parses as Prometheus
	// text exposition.
	for i, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("/metrics line %d not 'name value': %q", i+1, line)
		}
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, srv, "/trace.json"), &doc); err != nil {
		t.Fatalf("/trace.json does not parse: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat] = true
		if ev.Ph == "" {
			t.Errorf("/trace.json event %q has no phase", ev.Name)
		}
	}
	for _, want := range []string{obs.CatSim, obs.CatDart, obs.CatTask} {
		if !cats[want] {
			t.Errorf("/trace.json has no %q events", want)
		}
	}

	// /status carries only what no family does; the drain accounting is
	// the two task families.
	var st struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(get(t, srv, "/status"), &st); err != nil {
		t.Fatalf("/status does not parse: %v", err)
	}
	submitted, completed := sample(metrics, "pipeline_tasks_submitted_total"), sample(metrics, "pipeline_tasks_completed_total")
	if !st.Done || submitted == "" || submitted == "0" || submitted != completed {
		t.Errorf("inconsistent after drain: done=%v, %q tasks submitted, %q completed", st.Done, submitted, completed)
	}

	if body := string(get(t, srv, "/debug/pprof/")); !strings.Contains(body, "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// sample returns one unlabelled series' value in a Prometheus text
// dump ("" when the series is missing).
func sample(dump, name string) string {
	for _, line := range strings.Split(dump, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestTaskLifecycleReconciles drives a run and checks the JSONL ledger
// invariant: every task.submit id pairs with exactly one task.done.
func TestTaskLifecycleReconciles(t *testing.T) {
	pl, _ := runInstrumented(t)
	var sb strings.Builder
	if err := obs.WriteJSONL(&sb, pl.Recorder()); err != nil {
		t.Fatal(err)
	}
	submits := map[string]int{}
	dones := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("jsonl line does not parse: %v", err)
		}
		switch rec.Name {
		case "task.submit":
			submits[rec.Attrs["task"]]++
		case "task.done":
			dones[rec.Attrs["task"]]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(submits) == 0 {
		t.Fatal("no task.submit events recorded")
	}
	for id, n := range submits {
		if n != 1 || dones[id] != 1 {
			t.Errorf("task %s: %d submits, %d terminal events; want 1 and 1", id, n, dones[id])
		}
	}
	for id := range dones {
		if submits[id] == 0 {
			t.Errorf("task %s finished but never submitted", id)
		}
	}
}

// TestLegacyViewsUnchanged checks that the text Gantt over the full
// plane draws the simulation and bucket occupancy rows and none of the
// event-only lanes.
func TestLegacyViewsUnchanged(t *testing.T) {
	pl, p := runInstrumented(t)
	rec := p.EnableObs().Recorder() // EnableObs is idempotent: the same plane
	if rec != pl.Recorder() {
		t.Fatal("EnableObs returned a second recorder")
	}
	lanes := obs.TimelineLanes(rec)
	if len(lanes) < 2 || lanes[0] != "sim" {
		t.Fatalf("gantt lanes: %v, want sim then buckets", lanes)
	}
	for _, lane := range lanes[1:] {
		if !strings.HasPrefix(lane, "bucket-") {
			t.Fatalf("non-occupancy lane %q in the Gantt view", lane)
		}
	}
	gantt := obs.Gantt(rec, 80)
	if !strings.Contains(gantt, "sim") {
		t.Fatalf("gantt missing sim lane:\n%s", gantt)
	}
	if strings.Contains(gantt, "queue") || strings.Contains(gantt, "overload") {
		t.Fatalf("gantt rendered non-timeline lanes:\n%s", gantt)
	}
}
