package core

import (
	"math"
	"os"
	"testing"
	"time"

	"insitu/internal/codec"
	"insitu/internal/faults"
	"insitu/internal/metrics"
	"insitu/internal/stats"
)

// chaosSteps is the soak length: at least 50 pipeline steps under
// active fault injection.
const chaosSteps = 50

// runChaos drives a full hybrid pipeline through a fault storm —
// random drops, timeouts and corruptions, one link-partition window
// cutting off both staging buckets, and one bucket crash — and checks
// the robustness contract: the run terminates (no deadlock), every
// step's result is either correct or explicitly Degraded, every
// injected corruption is caught by the checksum framing, and nothing
// leaks. Sequence-level seed determinism is asserted directly in the
// faults package tests; here the same seed re-runs the same schedule.
func runChaos(t *testing.T, seed int64, steps int) {
	t.Helper()
	simCfg := testSimConfig(2, 1, 1)
	cfg := DefaultConfig(simCfg)
	cfg.DSServers = 2
	cfg.Buckets = 2
	cfg.StepBudget = 200 * time.Millisecond
	// The soak runs with delta framing on: corruption must be caught on
	// the encoded bytes, before any decoder sees them.
	cfg.Codecs = map[string]codec.Spec{"*": {ID: codec.Delta}}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets register first, so endpoints 0 and 1 are the staging
	// buckets; the partition window cuts both off. A task whose pulls
	// land in it exhausts its attempts and dead-letters into a
	// value-less Degraded step.
	// The partition window is placed in decision-index space relative
	// to the run length: each step costs at least one decision per
	// task pull (one per rank), so [steps, steps+40) opens partway
	// through any run and closes well before the drain.
	inj := faults.New(faults.Config{
		Seed:    seed,
		Default: faults.Rates{Drop: 0.05, Timeout: 0.03, Corrupt: 0.05},
		Partitions: []faults.Window{
			{From: steps, Until: steps + 40, Endpoints: []int{0, 1}},
		},
	})
	p.sched.net.SetFaults(inj)

	// All 14 variables: a payload large enough that its delta frames
	// are smaller than it, so frames, not raw payloads, cross the wire.
	sa := &StatsHybrid{EveryN: 1}
	p.Register(sa)

	// One deterministic bucket crash: the closed kill channel fires at
	// bucket 0's first task assignment, requeueing the task and
	// respawning the bucket.
	p.sched.area.CrashBucket(0)

	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := p.Run(steps)
		done <- outcome{rep, err}
	}()
	var rep *Report
	select {
	case oc := <-done:
		if oc.err != nil {
			t.Fatalf("chaos run failed hard: %v", oc.err)
		}
		rep = oc.rep
	case <-time.After(120 * time.Second):
		t.Fatal("chaos run deadlocked")
	}

	// Every step must be accounted for: a correct result or an
	// explicit Degraded marker — never silently missing.
	npts := int64(simCfg.Global.Size())
	checkDerived := func(step int, v any) {
		m, ok := v.(map[string]stats.Derived)
		if !ok {
			t.Errorf("step %d: unexpected result type %T", step, v)
			return
		}
		d := m["T"]
		if d.N != npts {
			t.Errorf("step %d: derived over %d points, want %d", step, d.N, npts)
		}
		if math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) {
			t.Errorf("step %d: non-finite mean %v", step, d.Mean)
		}
	}
	degraded := 0
	for s := 1; s <= steps; s++ {
		v := rep.Result(sa.Name(), s)
		if v == nil {
			t.Errorf("step %d: result silently lost", s)
			continue
		}
		if dg, ok := v.(Degraded); ok {
			degraded++
			if dg.Reason == "" {
				t.Errorf("step %d: Degraded without a reason", s)
			}
			// Dead-lettered steps carry no value; fallback steps carry
			// the full in-situ reduction.
			if dg.Value != nil {
				checkDerived(s, dg.Value)
			}
			continue
		}
		checkDerived(s, v)
	}

	res := rep.Resilience
	counts := inj.Counters().ByKind
	t.Logf("seed %d: faults=%+v injected=%v degraded=%d", seed, res, counts, degraded)

	// The partition window must have forced at least one degraded step,
	// and the scheduled bucket crash must have been absorbed.
	if res.DegradedSteps == 0 || degraded == 0 {
		t.Error("partition window produced no degraded steps")
	}
	if int64(degraded) != res.DegradedSteps || res.DegradedSteps != rep.Overload.StepsFallback+res.DeadLetters {
		t.Errorf("stored %d degraded markers but counted %d degraded steps (%d in-situ fallbacks + %d dead letters)",
			degraded, res.DegradedSteps, rep.Overload.StepsFallback, res.DeadLetters)
	}
	if crashes := p.sched.Staging().Resilience().Crashes; crashes < 1 {
		t.Errorf("bucket crash not recorded: %d crashes", crashes)
	}
	if faulted := p.sched.Network().Stats().Faulted; faulted == 0 || res.Retries == 0 {
		t.Errorf("fault storm did not exercise the retry path: %d faulted, %+v", faulted, res)
	}

	// Checksum framing must catch 100% of injected corruptions: no
	// corrupted payload is ever delivered to a handler.
	if res.ChecksumFailures != counts[faults.Corrupt] {
		t.Errorf("caught %d corruptions, injector produced %d", res.ChecksumFailures, counts[faults.Corrupt])
	}

	// No pinned-region leaks: requeues re-pull before release,
	// dead-letters release explicitly, successes release normally.
	if n := p.PinnedRegions(); n != 0 {
		t.Errorf("%d intermediate regions still pinned after drain", n)
	}

	// The codec layer was live under the storm: payloads were framed
	// and every delivered result above decoded correctly.
	if rep.Codec.RawBytes == 0 || rep.Codec.EncodedBytes >= rep.Codec.RawBytes {
		t.Errorf("delta framing shipped no frame smaller than its payload: %+v", rep.Codec)
	}
	t.Logf("codec economy under chaos: %+v ratio=%.2f", rep.Codec, rep.Codec.Ratio())
}

// TestDegradedFallback: a tenant without an admission plane submits
// every due step, so with the staging buckets partitioned for the whole
// run every task dead-letters. Each step must still be accounted for —
// a reasoned, value-less Degraded marker — with no intermediate byte
// moved, nothing left pinned, and no admission verdict tallied.
func TestDegradedFallback(t *testing.T) {
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.DSServers = 2
	cfg.Buckets = 2
	cfg.StepBudget = 50 * time.Millisecond
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.sched.net.SetFaults(faults.New(faults.Config{
		Seed:       7,
		Partitions: []faults.Window{{From: 0, Until: 1 << 30, Endpoints: []int{0, 1}}},
	}))
	// All 14 variables: a payload large enough that its delta frames
	// are smaller than it, so frames, not raw payloads, cross the wire.
	sa := &StatsHybrid{EveryN: 1}
	p.Register(sa)
	const steps = 4
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= steps; s++ {
		dg, ok := rep.Result(sa.Name(), s).(Degraded)
		if !ok {
			t.Fatalf("step %d: want Degraded, got %T", s, rep.Result(sa.Name(), s))
		}
		if dg.Reason == "" || dg.Value != nil {
			t.Fatalf("step %d: want a reasoned dead-letter marker, got %+v", s, dg)
		}
	}
	if res := rep.Resilience; res.DeadLetters != steps || res.DegradedSteps != steps {
		t.Fatalf("dead letters = %d, degraded steps = %d, want %d each", res.DeadLetters, res.DegradedSteps, steps)
	}
	if got := rep.Metrics.Total(sa.Name()).MoveBytes; got != 0 {
		t.Fatalf("partitioned run moved %d intermediate bytes, want 0", got)
	}
	if n := p.PinnedRegions(); n != 0 {
		t.Fatalf("%d regions pinned after fully dead-lettered run", n)
	}
	if rep.Overload != (metrics.Overload{}) {
		t.Fatalf("admission ran without a plane: %+v", rep.Overload)
	}
}

// TestChaosSoak is the fixed-seed soak: >= 50 steps under drops,
// timeouts, corruption, one partition window and one bucket crash.
func TestChaosSoak(t *testing.T) {
	runChaos(t, 42, chaosSteps)
}

// TestChaosSmoke is the short randomized-seed smoke run (make chaos):
// a fresh seed each invocation hunts schedule-dependent bugs the fixed
// seed cannot reach. Skipped unless CHAOS_SMOKE is set so the regular
// test suite stays deterministic.
func TestChaosSmoke(t *testing.T) {
	if os.Getenv("CHAOS_SMOKE") == "" {
		t.Skip("set CHAOS_SMOKE=1 to run the randomized-seed chaos smoke")
	}
	seed := time.Now().UnixNano()
	runChaos(t, seed, 12)
}
