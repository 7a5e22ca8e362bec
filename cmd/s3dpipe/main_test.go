package main

import (
	"bytes"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"insitu/internal/imagestore"
	"insitu/internal/registry"
)

const examples = "../../examples/configs/"

// cli runs the launcher in-process and returns its exit status and what
// it wrote to each stream.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoConfigPrintsUsage(t *testing.T) {
	code, stdout, stderr := cli()
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout != "" || !strings.Contains(stderr, "-config examples/configs/quickstart.json") {
		t.Errorf("usage must go to stderr and name the quickstart config\nstdout: %q\nstderr: %s", stdout, stderr)
	}
}

// TestRemovedFlagPointsAtMigrationTable: a scenario flag from before
// configs were the only front door fails, and the error says where its
// replacement is documented.
func TestRemovedFlagPointsAtMigrationTable(t *testing.T) {
	code, _, stderr := cli("-nx", "16")
	if code == 0 {
		t.Error("exit 0 for a removed flag")
	}
	for _, want := range []string{"-nx", "PIPELINES.md", "Migrating from flags"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not mention %q:\n%s", want, stderr)
		}
	}
}

// TestImagesWritesTheStoredFinalFrames: -images writes the final step's
// frames as the image store holds them, one PNG per camera.
func TestImagesWritesTheStoredFinalFrames(t *testing.T) {
	const steps = 4
	cfg, err := registry.LoadConfig(examples + "store-serve.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store.Dir, cfg.Store.Serve = t.TempDir(), ""
	data, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath, dir := filepath.Join(t.TempDir(), "store-serve.json"), t.TempDir()
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := cli("-config", cfgPath, "-steps", strconv.Itoa(steps), "-images", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}

	st, err := imagestore.Open(cfg.Store.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := st.Info()
	if len(files) != len(info.Cams) || len(info.Cams) != 4 {
		t.Fatalf("-images wrote %d files for %d cameras, want 4", len(files), len(info.Cams))
	}
	for _, cam := range info.Cams {
		want, _, err := st.Frame(imagestore.Spec{Var: info.Vars[0], Step: steps, Cam: cam})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, info.Vars[0]+"-"+cam+".png"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: written frame differs from the store's", cam)
		}
		if _, err := png.Decode(bytes.NewReader(got)); err != nil {
			t.Errorf("%s: %v", cam, err)
		}
	}
}

// TestImagesWithoutStoreIsAUsageError: with no store there are no frame
// bytes to write, and the error points at a config that has a store.
func TestImagesWithoutStoreIsAUsageError(t *testing.T) {
	code, _, stderr := cli("-config", examples+"quickstart.json", "-images", t.TempDir())
	if code != 2 || !strings.Contains(stderr, "store-serve.json") {
		t.Errorf("exit %d, want 2 and a pointer to store-serve.json: %s", code, stderr)
	}
}

// TestReplayRerunsTheRecoveryRun: -replay on recovery.json after its
// run visits the run's two checkpoints, says in its header that it
// replays the checkpoints up to the resolved step, prints the same
// final-step topology line and leaves journal.wal as it was.
func TestReplayRerunsTheRecoveryRun(t *testing.T) {
	cfg, err := registry.LoadConfig(examples + "recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recovery.Dir = t.TempDir()
	data, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "recovery.json")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, fresh, stderr := cli("-config", cfgPath)
	if code != 0 {
		t.Fatalf("run: exit %d: %s", code, stderr)
	}
	wal := filepath.Join(cfg.Recovery.Dir, "journal.wal")
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	code, replay, stderr := cli("-config", cfgPath, "-replay")
	if code != 0 {
		t.Fatalf("replay: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"s3dpipe: recovery: 1 tenant(s), 2 buckets, a replay of the checkpoints at or below step 8\n", "simulation: 2 steps", "recovery: 0 commits, 0 checkpoints, 0 journal fsyncs", "replayed 2 checkpoint steps"} {
		if !strings.Contains(replay, want) {
			t.Errorf("replay output lacks %q:\n%s", want, replay)
		}
	}
	topo := regexp.MustCompile(`hybrid topology \(final step\): .*`)
	if got, want := topo.FindString(replay), topo.FindString(fresh); got == "" || got != want {
		t.Errorf("replay printed %q, the run %q", got, want)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
		t.Errorf("journal.wal changed by the replay (%v)", err)
	}
}

// TestReplayFlagErrors: -replay beside -resume is a usage error, and
// -replay on a config without a recovery block fails naming the block.
func TestReplayFlagErrors(t *testing.T) {
	if code, _, stderr := cli("-config", examples+"recovery.json", "-replay", "-resume"); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("-replay -resume: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := cli("-config", examples+"quickstart.json", "-replay"); code != 1 || !strings.Contains(stderr, "recovery block") {
		t.Errorf("-replay without recovery: exit %d, stderr %q", code, stderr)
	}
}

// rows counts the lines of out that start with prefix.
func rows(out, prefix string) int {
	return strings.Count("\n"+out, "\n"+prefix)
}

func TestQuickstartPrintsTableII(t *testing.T) {
	code, stdout, stderr := cli("-config", examples+"quickstart.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if rows(stdout, "analysis ") != 1 || !strings.Contains(stdout, "in-transit\n") {
		t.Errorf("no single Table II header in:\n%s", stdout)
	}
	cfg, err := registry.LoadConfig(examples + "quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, a := range b.Tenants[0].Analyses {
		if rows(stdout, a.Name()+"  ") != 1 {
			t.Errorf("want one Table II row for %q in:\n%s", a.Name(), stdout)
		}
	}
	if rows(stdout, "tenant ") != 1 || rows(stdout, "fabric:") != 1 {
		t.Errorf("want one tenant block and one fabric block in:\n%s", stdout)
	}
}

func TestTenantsPrintsOneBlockPerTenantAndOneFabric(t *testing.T) {
	code, stdout, stderr := cli("-config", examples+"tenants.json", "-steps", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg, err := registry.LoadConfig(examples + "tenants.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range cfg.Tenants {
		if rows(stdout, "tenant "+tn.Name+":") != 1 {
			t.Errorf("want one block for tenant %q in:\n%s", tn.Name, stdout)
		}
	}
	if rows(stdout, "analysis ") != len(cfg.Tenants) {
		t.Errorf("want one Table II per tenant in:\n%s", stdout)
	}
	if rows(stdout, "fabric:") != 1 || rows(stdout, "  quarantine ") != 1 || rows(stdout, "  credits ") != 1 {
		t.Errorf("want one fabric block with quarantine and credits lines in:\n%s", stdout)
	}
	// Faults, requeues, crashes and dead letters are fabric-wide: printed
	// once, not repeated under every tenant.
	if rows(stdout, "  faults ") != 1 || strings.Count(stdout, "faults injected") != 1 {
		t.Errorf("want the fabric-wide fault counters once, in the fabric block:\n%s", stdout)
	}
}

func TestListPrintsEveryRegisteredAnalysis(t *testing.T) {
	code, stdout, _ := cli("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	names := registry.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		if rows(stdout, name+" ") != 1 {
			t.Errorf("-list does not print %q:\n%s", name, stdout)
		}
	}
}

// liveOutput is a stdout the test reads while run is still writing it.
type liveOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *liveOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *liveOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// TestObsEndpointAndDump drives the launcher's own observability wiring
// (obs.Handler over Scheduler.Status behind -obs, dumpObs behind -obs-dump)
// on the quickstart config: the endpoint answers on the address
// serveHTTP prints, /status reports the drained run, every export is
// served, and the dump leaves its three files. What the exports must
// contain is internal/obs's TestObsEndpoint and
// TestTaskLifecycleReconciles.
func TestObsEndpointAndDump(t *testing.T) {
	dump := t.TempDir()
	var out liveOutput
	var errb bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-config", examples + "quickstart.json",
			"-obs", "127.0.0.1:0", "-obs-dump", dump, "-hold"}, &out, &errb)
	}()
	// -hold keeps the endpoint up after the run; the hold line comes
	// after the dump and once SIGTERM is caught rather than fatal.
	deadline := time.Now().Add(time.Minute)
	for !strings.Contains(out.String(), "holding endpoints open") {
		select {
		case code := <-exit:
			t.Fatalf("exit %d before holding: %s\n%s", code, errb.String(), out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached -hold:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := regexp.MustCompile(`observability endpoint on (http://[^/]+)/`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no endpoint address in:\n%s", out.String())
	}
	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(m[1] + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: status %s, %d bytes, err %v", path, resp.Status, len(body), err)
		}
		return body
	}
	var st struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(fetch("/status"), &st); err != nil || !st.Done {
		t.Errorf("/status after the run: done=%v, err %v", st.Done, err)
	}
	for _, path := range []string{"/metrics", "/trace.json", "/events.jsonl", "/debug/pprof/"} {
		fetch(path)
	}
	for _, name := range []string{"trace.json", "events.jsonl", "metrics.prom"} {
		if fi, err := os.Stat(filepath.Join(dump, name)); err != nil || fi.Size() == 0 {
			t.Errorf("-obs-dump left no %s: %v", name, err)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d: %s", code, errb.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not return after SIGTERM")
	}
}
