package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"insitu/internal/bp"
	"insitu/internal/codec"
	"insitu/internal/obs"
	"insitu/internal/recovery"
)

// replayTestPipeline is recoveryTestPipeline over a px×py×1
// decomposition: a stats route on the delta codec, journaling into dir
// with a checkpoint every 2 steps.
func replayTestPipeline(t *testing.T, dir string, px, py int) (*Pipeline, *StatsHybrid) {
	t.Helper()
	cfg := DefaultConfig(testSimConfig(px, py, 1))
	cfg.DSServers, cfg.Buckets = 2, 2
	cfg.Codecs = map[string]codec.Spec{"*": {ID: codec.Delta}}
	cfg.Recovery = &RecoveryConfig{Dir: dir, Every: 2}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa := &StatsHybrid{Vars: []string{"T", "P"}}
	p.Register(sa)
	return p, sa
}

// dirSnapshot maps every file under dir to its bytes.
func dirSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = b
	}
	return snap
}

// TestReplayRerunsTheCheckpointsAndWritesNothing: a replay of a 6-step
// run visits its checkpoint steps 2, 4 and 6 in order, the stats
// route's result at each is the coupled run's, digest for digest, and
// the journal directory is byte-identical afterwards: no record
// appended, no checkpoint written.
func TestReplayRerunsTheCheckpointsAndWritesNothing(t *testing.T) {
	const steps = 6
	dir := t.TempDir()
	p1, sa := replayTestPipeline(t, dir, 2, 1)
	coupled, err := p1.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, dir)

	p2, _ := replayTestPipeline(t, dir, 2, 1)
	pl := p2.EnableObs()
	rep, err := p2.Replay(steps)
	if err != nil {
		t.Fatal(err)
	}
	if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("the replay changed the journal directory")
	}
	var visited []string
	for _, s := range pl.Recorder().SpansCat(obs.CatSim) {
		if s.Name == "sim.step" {
			visited = append(visited, s.Attrs[0].Value)
		}
	}
	if want := []string{"2", "4", "6"}; !slices.Equal(visited, want) {
		t.Fatalf("sim.step spans at steps %v, want %v", visited, want)
	}
	got := rep.Results[sa.Name()]
	if len(got) != 3 {
		t.Fatalf("replay stored %d results, want one per checkpoint step", len(got))
	}
	for step, out := range got {
		if want := ResultDigest(coupled.Result(sa.Name(), step)); ResultDigest(out) != want {
			t.Errorf("step %d: replay digest %s, coupled %s", step, ResultDigest(out), want)
		}
	}
	if r := rep.Recovery; r == nil || r.Commits != 0 || r.Checkpoints != 0 || r.JournalFsyncs != 0 {
		t.Fatalf("recovery report %+v, want a plane that wrote nothing", r)
	}
	if n := p2.PinnedRegions(); n != 0 {
		t.Fatalf("%d pinned regions leaked", n)
	}
}

// TestReplaySkipsABadCheckpoint: a checkpoint with a corrupt rank file
// is skipped with a Report warning, and the replay runs the rest; with
// every checkpoint corrupt it is refused, and the refusal says why.
func TestReplaySkipsABadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p1, sa := replayTestPipeline(t, dir, 2, 1)
	if _, err := p1.Run(4); err != nil {
		t.Fatal(err)
	}
	corrupt := func(step, rank int) {
		path := filepath.Join(dir, recovery.CheckpointFile(step, rank))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[64] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(2, 1)
	p2, _ := replayTestPipeline(t, dir, 2, 1)
	rep, err := p2.Replay(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result(sa.Name(), 2) != nil || rep.Result(sa.Name(), 4) == nil {
		t.Fatalf("replay results %v, want step 4 only", rep.Results)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0].Error(), "checkpoint 2: rank 1") {
		t.Fatalf("warnings %v, want one naming checkpoint 2 rank 1", rep.Warnings)
	}

	corrupt(4, 0)
	p3, _ := replayTestPipeline(t, dir, 2, 1)
	if _, err := p3.Replay(4); !errors.Is(err, ErrNoCheckpoint) || !strings.Contains(err.Error(), "checkpoint 4: rank 0") {
		t.Fatalf("Replay over corrupt checkpoints = %v, want ErrNoCheckpoint naming checkpoint 4 rank 0", err)
	}
}

// dropT rewrites a checkpoint's rank file without its T field: its
// CRCs pass, and sim.CheckCheckpoint refuses it.
func dropT(t *testing.T, dir string, step, rank int) {
	t.Helper()
	path := filepath.Join(dir, recovery.CheckpointFile(step, rank))
	fields, err := bp.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].Name != "T" {
		t.Fatalf("%s starts with %q, want T", path, fields[0].Name)
	}
	if _, err := bp.WriteFile(path, fields[1:]); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRunsNoRouteOnAFailedRestore: a checkpoint that reads back
// with good CRCs but that one rank could not restore (a variable is
// missing) is skipped by the plan with a warning, as a corrupt one is:
// no route runs at its step, the replay returns no error, and the next
// checkpoint replays the coupled run's result.
func TestReplayRunsNoRouteOnAFailedRestore(t *testing.T) {
	dir := t.TempDir()
	p1, sa := replayTestPipeline(t, dir, 2, 1)
	coupled, err := p1.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	dropT(t, dir, 2, 1)
	p2, _ := replayTestPipeline(t, dir, 2, 1)
	rep, err := p2.Replay(4)
	if err != nil {
		t.Fatalf("Replay = %v, want the bad checkpoint skipped", err)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0].Error(), "checkpoint 2: rank 1") {
		t.Fatalf("warnings %v, want one naming checkpoint 2 rank 1", rep.Warnings)
	}
	if rep.Result(sa.Name(), 2) != nil {
		t.Fatalf("replay stored %v at step 2, want no result", rep.Result(sa.Name(), 2))
	}
	if got, want := ResultDigest(rep.Result(sa.Name(), 4)), ResultDigest(coupled.Result(sa.Name(), 4)); got != want {
		t.Fatalf("step 4: replay digest %s, coupled %s", got, want)
	}
}

// TestResumeFallsBackPastARefusedCheckpoint: a Resume whose newest
// checkpoint reads back with good CRCs but lacks a variable on one rank
// falls back to the older checkpoint with a warning, and its live steps
// equal the uninterrupted run's. The wait is bounded, so a rank that
// leaves the others blocked in a collective fails the test in seconds.
func TestResumeFallsBackPastARefusedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p1, _ := replayTestPipeline(t, dir, 2, 1)
	if _, err := p1.Run(4); err != nil {
		t.Fatal(err)
	}
	dropT(t, dir, 4, 1)
	p2, sa := replayTestPipeline(t, dir, 2, 1)
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := p2.Resume(6)
		done <- outcome{rep, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Resume(6) had not returned after 30 s")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	rep := got.rep
	if r := rep.Recovery; r.CheckpointStep != 2 || r.ResumedFrom != 4 {
		t.Fatalf("resumed from step %d at checkpoint %d, want step 4 at checkpoint 2", r.ResumedFrom, r.CheckpointStep)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0].Error(), "checkpoint 4: rank 1") {
		t.Fatalf("warnings %v, want one naming checkpoint 4 rank 1", rep.Warnings)
	}
	p3, _ := replayTestPipeline(t, t.TempDir(), 2, 1)
	whole, err := p3.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	for step := 5; step <= 6; step++ {
		if got, want := ResultDigest(rep.Result(sa.Name(), step)), ResultDigest(whole.Result(sa.Name(), step)); got != want {
			t.Errorf("step %d: resumed digest %s, uninterrupted %s", step, got, want)
		}
	}
}

// TestReplayRefusals: each refusal is typed and fires before any step
// runs — a tenant without recovery, a journal with no checkpoint (an
// empty one, and one whose run stopped short of the first), a
// checkpoint cut for another decomposition (another rank count, and
// the same count over other boxes) and a tenant with siblings.
func TestReplayRefusals(t *testing.T) {
	ran := t.TempDir()
	p, _ := replayTestPipeline(t, ran, 2, 1)
	if _, err := p.Run(2); err != nil {
		t.Fatal(err)
	}
	short := t.TempDir()
	p, _ = replayTestPipeline(t, short, 2, 1)
	if _, err := p.Run(1); err != nil {
		t.Fatal(err)
	}

	bare, _ := recoveryTestPipeline(t, "", nil)
	s, err := NewScheduler(SchedulerConfig{DSServers: 1, Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sib *Pipeline
	for _, name := range []string{"a", "b"} {
		if sib, err = s.AddTenant(name, TenantConfig{Sim: testSimConfig(1, 1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	build := func(dir string, px, py int) *Pipeline {
		p, _ := replayTestPipeline(t, dir, px, py)
		return p
	}
	for _, c := range []struct {
		name string
		p    *Pipeline
		want error
	}{
		{"no recovery block", bare, ErrNoRecovery},
		{"empty journal", build(t.TempDir(), 2, 1), ErrNoCheckpoint},
		{"no checkpoint yet", build(short, 2, 1), ErrNoCheckpoint},
		{"other rank count", build(ran, 1, 1), ErrDecompMismatch},
		{"other boxes", build(ran, 1, 2), ErrDecompMismatch},
		{"siblings", sib, ErrNotAlone},
	} {
		rep, err := c.p.Replay(2)
		if !errors.Is(err, c.want) || rep != nil {
			t.Errorf("%s: Replay = %v, %v; want %v", c.name, rep, err, c.want)
		}
		if _, _, n := c.p.col.SimTime(); n != 0 {
			t.Errorf("%s: %d steps ran before the refusal", c.name, n)
		}
	}
}

// TestEnableObsRacingRunStart: EnableObs called while Run starts
// either attaches the whole plane before the run claims the scheduler,
// which then records every step, or attaches nothing and returns nil.
// Under -race it reports no race with the rank loops' unlocked reads.
func TestEnableObsRacingRunStart(t *testing.T) {
	const steps = 200
	p, _ := recoveryTestPipeline(t, "", nil)
	attached := make(chan *obs.Plane)
	go func() {
		time.Sleep(200 * time.Microsecond)
		attached <- p.EnableObs()
	}()
	if _, err := p.Run(steps); err != nil {
		t.Fatal(err)
	}
	pl := <-attached
	if again := p.EnableObs(); again != pl {
		t.Fatalf("EnableObs after Run returned %p, want the plane attached before it (%p)", again, pl)
	}
	if pl == nil {
		return
	}
	n := 0
	for _, s := range pl.Recorder().SpansCat(obs.CatSim) {
		if s.Name == "sim.step" {
			n++
		}
	}
	if n != steps {
		t.Fatalf("a plane attached before Run recorded %d sim.step spans, want %d", n, steps)
	}
}
