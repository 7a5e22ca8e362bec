// Command obscheck is the CI gate for the observability endpoint: it
// launches a built s3dpipe binary on the quickstart config with -obs
// and -hold, waits for the run to drain via /status, then validates
// every export the endpoint serves:
//
//   - /metrics contains the transfer, retry, credit, and admission
//     series and parses as Prometheus text exposition,
//   - /trace.json parses as Chrome trace-event JSON with a non-empty
//     traceEvents array,
//   - /events.jsonl parses line by line and its task lifecycle
//     reconciles: every task.submit id has exactly one task.done,
//   - /debug/pprof/ answers.
//
// It exits non-zero on the first violation. Usage, from the repository
// root (the driven config is a relative path):
//
//	obscheck -bin /path/to/s3dpipe
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"
)

// config is the run the gate drives: the smallest checked-in example.
const config = "examples/configs/quickstart.json"

func main() {
	bin := flag.String("bin", "", "path to the s3dpipe binary to drive")
	addr := flag.String("addr", "127.0.0.1:17710", "address the endpoint listens on")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()
	if *bin == "" {
		fatal("obscheck: -bin is required")
	}

	cmd := exec.Command(*bin, "-config", config, "-obs", *addr, "-hold")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatal("obscheck: start %s: %v", *bin, err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	base := "http://" + *addr
	deadline := time.Now().Add(*timeout)
	waitDone(base, deadline)

	checkMetrics(base)
	checkTrace(base)
	checkEvents(base)
	checkPprof(base)
	fmt.Println("obscheck: all endpoint checks passed")
}

// waitDone polls /status until the pipeline reports the run drained.
func waitDone(base string, deadline time.Time) {
	for {
		if time.Now().After(deadline) {
			fatal("obscheck: run did not drain before the deadline")
		}
		body, err := get(base + "/status")
		if err == nil {
			var st struct {
				Done bool `json:"done"`
			}
			if json.Unmarshal(body, &st) == nil && st.Done {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checkMetrics validates the Prometheus text dump: the required series
// are present and every non-comment line has a parseable shape.
func checkMetrics(base string) {
	body, err := get(base + "/metrics")
	if err != nil {
		fatal("obscheck: /metrics: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"dart_transfer_bytes_total",
		"dart_retries_total",
		"credits_available",
		"credits_total",
		"admission_decisions_total",
		"pipeline_tasks_submitted_total",
	} {
		if !strings.Contains(text, want) {
			fatal("obscheck: /metrics is missing series %q", want)
		}
	}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fatal("obscheck: /metrics line %d not 'name value': %q", i+1, line)
		}
	}
	fmt.Println("obscheck: /metrics ok")
}

// checkTrace validates /trace.json as Chrome trace-event JSON.
func checkTrace(base string) {
	body, err := get(base + "/trace.json")
	if err != nil {
		fatal("obscheck: /trace.json: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		fatal("obscheck: /trace.json does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		fatal("obscheck: /trace.json has no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			fatal("obscheck: /trace.json event %q has no phase", ev.Name)
		}
	}
	fmt.Printf("obscheck: /trace.json ok (%d events)\n", len(doc.TraceEvents))
}

// checkEvents validates /events.jsonl and reconciles the task
// lifecycle: every task.submit pairs with exactly one task.done.
func checkEvents(base string) {
	body, err := get(base + "/events.jsonl")
	if err != nil {
		fatal("obscheck: /events.jsonl: %v", err)
	}
	submits := map[string]int{}
	dones := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		n++
		var rec struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			fatal("obscheck: /events.jsonl line %d does not parse: %v", n, err)
		}
		switch rec.Name {
		case "task.submit":
			submits[rec.Attrs["task"]]++
		case "task.done":
			dones[rec.Attrs["task"]]++
		}
	}
	if err := sc.Err(); err != nil {
		fatal("obscheck: /events.jsonl: %v", err)
	}
	if len(submits) == 0 {
		fatal("obscheck: /events.jsonl has no task.submit events")
	}
	for id, c := range submits {
		if c != 1 {
			fatal("obscheck: task %s submitted %d times", id, c)
		}
		if dones[id] != 1 {
			fatal("obscheck: task %s has %d terminal events, want exactly 1", id, dones[id])
		}
	}
	for id := range dones {
		if submits[id] == 0 {
			fatal("obscheck: task %s completed but was never submitted", id)
		}
	}
	fmt.Printf("obscheck: /events.jsonl ok (%d lines, %d tasks reconciled)\n", n, len(submits))
}

// checkPprof confirms the live profiling index answers.
func checkPprof(base string) {
	if _, err := get(base + "/debug/pprof/"); err != nil {
		fatal("obscheck: /debug/pprof/: %v", err)
	}
	fmt.Println("obscheck: /debug/pprof/ ok")
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
