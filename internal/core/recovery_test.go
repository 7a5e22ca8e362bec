package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/codec"
	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/stats"
)

// recoveryTestPipeline builds a small recovery-enabled hybrid pipeline
// (stats route, delta codec everywhere) journaling into dir. With
// dir == "" recovery is disabled — the plain twin the recovery runs
// are compared against.
func recoveryTestPipeline(t *testing.T, dir string, kill recovery.KillFunc) (*Pipeline, *StatsHybrid) {
	t.Helper()
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.DSServers = 2
	cfg.Buckets = 2
	cfg.Codecs = map[string]codec.Spec{"*": {ID: codec.Delta}}
	if dir != "" {
		cfg.Recovery = &RecoveryConfig{Dir: dir, Every: 2, Kill: kill}
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa := &StatsHybrid{Vars: []string{"T", "P"}}
	p.Register(sa)
	return p, sa
}

// TestBucketRespawnDeltaCodec: a bucket crash requeues its task onto
// the respawned bucket, which re-pulls the task's delta-framed
// payloads; the decode must land on the correct base epoch — identical
// results to the crash-free run, zero checksum failures.
func TestBucketRespawnDeltaCodec(t *testing.T) {
	const steps = 8

	run := func(crash bool) (*Report, int64) {
		p, sa := recoveryTestPipeline(t, "", nil)
		if crash {
			p.sched.area.CrashBucket(0)
		}
		rep, err := p.Run(steps)
		if err != nil {
			t.Fatalf("run (crash=%v): %v", crash, err)
		}
		if n := p.PinnedRegions(); n != 0 {
			t.Fatalf("run (crash=%v): %d pinned regions leaked", crash, n)
		}
		for s := 1; s <= steps; s++ {
			if rep.Result(sa.Name(), s) == nil {
				t.Fatalf("run (crash=%v): step %d result missing", crash, s)
			}
		}
		return rep, p.sched.Staging().Resilience().Crashes
	}

	golden, _ := run(false)
	crashed, crashes := run(true)

	if crashes != 1 {
		t.Errorf("crashes = %d, want 1", crashes)
	}
	if crashed.Resilience.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", crashed.Resilience.Requeues)
	}
	if crashed.Resilience.ChecksumFailures != 0 {
		t.Errorf("checksum failures = %d on a fault-free fabric: delta decode hit a wrong base epoch",
			crashed.Resilience.ChecksumFailures)
	}
	if !reflect.DeepEqual(golden.Results, crashed.Results) {
		t.Error("results diverge after bucket respawn with delta framing")
	}
}

// TestObsLedgerAcrossRestart: a killed journaled run and its resumed
// successor each keep their own observability plane; the resumed
// plane's task ledger must reconcile on its own — the dead process's
// orphan submits never leak into the new plane's accounting — and the
// recovery metric families must report the resume.
func TestObsLedgerAcrossRestart(t *testing.T) {
	const steps = 8
	dir := t.TempDir()

	p1, _ := recoveryTestPipeline(t, dir, recovery.KillAt(recovery.PhaseMidSubmit, 4))
	killed := p1.EnableObs().Recorder()
	_, err := p1.Run(steps)
	if !errors.Is(err, recovery.ErrKilled) {
		t.Fatalf("crashed run: err = %v, want ErrKilled", err)
	}
	var kills []obs.Span
	for _, s := range killed.SpansCat(obs.CatSim) {
		if s.Name == "recovery.kill" {
			kills = append(kills, s)
		}
	}
	want := []obs.Attr{obs.Str("phase", recovery.PhaseMidSubmit.String()), obs.Int("step", 4)}
	if len(kills) != 1 || !reflect.DeepEqual(kills[0].Attrs, want) {
		t.Fatalf("recovery.kill events %+v, want one with %v", kills, want)
	}

	p2, _ := recoveryTestPipeline(t, dir, nil)
	pl := p2.EnableObs()
	rep, err := p2.Resume(steps)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Recovery == nil || rep.Recovery.ReplayedTasks < 1 {
		t.Fatalf("recovery report = %+v, want >= 1 replayed task", rep.Recovery)
	}

	var sb strings.Builder
	if err := pl.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, fam := range []string{
		"recovery_replayed_tasks_total",
		"recovery_commits_total",
		"recovery_checkpoints_total",
		"recovery_journal_fsyncs_total",
		"recovery_resume_seconds",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("metric family %s missing from resumed plane", fam)
		}
	}

	// Ledger reconciliation: every task the resumed process submitted
	// drained to a final result in the same process. The dead process's
	// journaled submits were replayed, not adopted.
	sub := metricValue(t, text, "pipeline_tasks_submitted_total")
	com := metricValue(t, text, "pipeline_tasks_completed_total")
	if sub == "" || sub == "0" || sub != com {
		t.Errorf("resumed ledger does not reconcile: submitted %v, completed %v", sub, com)
	}
}

// metricValue extracts one unlabeled sample value from a Prometheus
// text exposition.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimSpace(strings.TrimPrefix(line, name))
		}
	}
	t.Errorf("metric %s missing", name)
	return ""
}

// TestRunRefusesDirtyJournal: Run on a journal with records must point
// the caller at Resume instead of silently double-running.
func TestRunRefusesDirtyJournal(t *testing.T) {
	const steps = 4
	dir := t.TempDir()
	p1, _ := recoveryTestPipeline(t, dir, nil)
	if _, err := p1.Run(steps); err != nil {
		t.Fatal(err)
	}
	p2, _ := recoveryTestPipeline(t, dir, nil)
	if _, err := p2.Run(steps); err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("Run on dirty journal: err = %v, want a use-Resume error", err)
	}
}

// TestRecoveryReportCheckpointIO: a run reports the checkpoint bytes
// it left on disk and the time its collective writes took; a fresh run
// reads no checkpoint back, and a resume that restored one reports the
// read and writes nothing more.
func TestRecoveryReportCheckpointIO(t *testing.T) {
	const steps = 4
	dir := t.TempDir()
	p1, _ := recoveryTestPipeline(t, dir, nil)
	fresh, err := p1.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.bp"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	r := fresh.Recovery
	if len(files) != 4 || r.CheckpointBytes != onDisk {
		t.Fatalf("report counts %d checkpoint bytes, the run's %d bp files hold %d", r.CheckpointBytes, len(files), onDisk)
	}
	if r.CheckpointWriteSeconds <= 0 || r.CheckpointReadSeconds != 0 {
		t.Fatalf("fresh run: write %gs, read %gs; want > 0 and 0", r.CheckpointWriteSeconds, r.CheckpointReadSeconds)
	}

	p2, _ := recoveryTestPipeline(t, dir, nil)
	resumed, err := p2.Resume(steps)
	if err != nil {
		t.Fatal(err)
	}
	r = resumed.Recovery
	if r.CheckpointStep != steps || r.CheckpointReadSeconds <= 0 {
		t.Fatalf("resume restored checkpoint %d in %gs; want %d and > 0", r.CheckpointStep, r.CheckpointReadSeconds, steps)
	}
	if r.CheckpointBytes != 0 || r.CheckpointWriteSeconds != 0 {
		t.Fatalf("a resume with no live step wrote %d checkpoint bytes in %gs", r.CheckpointBytes, r.CheckpointWriteSeconds)
	}
}

// TestResumeEquivalence: a fresh journaled run and a killed+resumed
// pair produce identical stored results for the live steps and commit
// every step with matching digests.
func TestResumeEquivalence(t *testing.T) {
	const steps = 8
	goldenDir := t.TempDir()
	pg, sa := recoveryTestPipeline(t, goldenDir, nil)
	grep, err := pg.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	p1, _ := recoveryTestPipeline(t, dir, recovery.KillAt(recovery.PhasePreAdmit, 5))
	if _, err := p1.Run(steps); !errors.Is(err, recovery.ErrKilled) {
		t.Fatalf("crashed run: err = %v, want ErrKilled", err)
	}
	p2, _ := recoveryTestPipeline(t, dir, nil)
	rrep, err := p2.Resume(steps)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for s := rrep.Recovery.ResumedFrom + 1; s <= steps; s++ {
		if !reflect.DeepEqual(rrep.Result(sa.Name(), s), grep.Result(sa.Name(), s)) {
			t.Errorf("step %d: resumed result diverges from fresh run", s)
		}
	}
	jg, err := recovery.Open(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := recovery.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sg, sr := recovery.Analyze(jg.Records()), recovery.Analyze(jr.Records())
	if sg.LastCommit != steps || sr.LastCommit != steps {
		t.Fatalf("last commits: golden %d, resumed %d, want %d", sg.LastCommit, sr.LastCommit, steps)
	}
	for s := 1; s <= steps; s++ {
		if !reflect.DeepEqual(sg.Commits[s].Digests, sr.Commits[s].Digests) {
			t.Errorf("step %d: digests diverge: %v vs %v", s, sr.Commits[s].Digests, sg.Commits[s].Digests)
		}
	}
}

// TestResultDigestByValue: results that hold pointers digest by what
// they point at — two separately allocated, equal results agree, bare
// or wrapped in Degraded, and a different value still digests
// differently.
func TestResultDigestByValue(t *testing.T) {
	table := func(n int64) *ContingencyResult {
		tab, err := stats.NewContingency(0, 1, 2, 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		tab.N, tab.Counts[3] = n, n
		return &ContingencyResult{VarX: "T", VarY: "Y_OH", Table: tab}
	}
	frames := func(x int) []FrameRef {
		return []FrameRef{{Var: "T", Step: 1, Cam: "cam00", Digest: fmt.Sprint(x)}}
	}
	for name, mk := range map[string]func(x int) any{
		"contingency":          func(x int) any { return table(int64(x)) },
		"frame refs":           func(x int) any { return frames(x) },
		"degraded contingency": func(x int) any { return Degraded{Reason: "shed", Value: table(int64(x))} },
		"degraded frame refs":  func(x int) any { return Degraded{Reason: "shed", Value: frames(x)} },
	} {
		if a, b := ResultDigest(mk(1)), ResultDigest(mk(1)); a != b {
			t.Errorf("%s: equal results digest differently: %s vs %s", name, a, b)
		}
		if a, b := ResultDigest(mk(1)), ResultDigest(mk(2)); a == b {
			t.Errorf("%s: different results share digest %s", name, a)
		}
	}
}
