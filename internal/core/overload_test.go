package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/overload"
)

// slowTransitAnalysis is a hybrid analysis whose in-transit stage
// deliberately dawdles, so the single bucket stays busy and the
// bounded task queue fills.
type slowTransitAnalysis struct {
	delay time.Duration
}

func (s *slowTransitAnalysis) Name() string { return "slow transit" }
func (s *slowTransitAnalysis) Every() int   { return 1 }

func (s *slowTransitAnalysis) InSituStage(ctx *Ctx) ([]byte, error) {
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (s *slowTransitAnalysis) InTransit(step int, payloads [][]byte) (any, error) {
	time.Sleep(s.delay)
	return step, nil
}

// TestShedAtSubmitRecyclesInputs is the pooled-buffer ownership
// regression test for the shed path: when rank 0 has already produced
// and pinned every rank's intermediate payload and the bounded task
// queue then refuses the submission, the step must shed — recycling
// each pinned region exactly once (PinnedRegions drains to zero, no
// double-put panic under -race) and carrying an explicit shed marker.
// The credit account must also drain: credits held by refused steps
// are returned at the shed, not leaked.
func TestShedAtSubmitRecyclesInputs(t *testing.T) {
	// One bucket and one-deep queues size the shared supply at
	// 1 + 2*1 = 3 credits with no floors. The idle tenant "b" lends its
	// share, so "a" keeps being granted credits while its own queue is
	// already full: one task running, one queued, the third refused at
	// submit with ErrQueueFull (rather than the credit account hiding
	// the shed path).
	s, err := NewScheduler(SchedulerConfig{DSServers: 1, Buckets: 1, Net: netsim.Gemini(), QueueBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.AddTenant("a", TenantConfig{
		Sim: testSimConfig(2, 1, 1),
		// Keep the breaker and ladder out of the way: this test is about
		// submit-time backpressure only.
		Overload: &overload.Config{
			Breaker: overload.BreakerConfig{FailureThreshold: 1 << 20, Cooldown: time.Hour},
			Ladder: overload.LadderConfig{
				QueueHigh: 1 << 20, QueueLow: 1 << 19,
				DegradeAfter: 1 << 20, RecoverAfter: 1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("b", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	// The bucket must stay busy for three simulation steps (one task
	// running, one queued, one refused); 100ms leaves room for -race on a
	// loaded host, where a step of this tiny grid can take ~10ms.
	p.Register(&slowTransitAnalysis{delay: 100 * time.Millisecond})
	pl := s.EnableObs()
	rec := pl.Recorder()

	const steps = 8
	reps, err := s.Run(steps)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	rep := reps["a"]
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("shed path leaked %d pinned regions", got)
	}
	shed := 0
	for step := 1; step <= steps; step++ {
		switch out := rep.Result("slow transit", step).(type) {
		case Degraded:
			if !strings.HasPrefix(out.Reason, "shed:") {
				t.Fatalf("step %d degraded without a shed reason: %q", step, out.Reason)
			}
			shed++
		case int:
			if out != step {
				t.Fatalf("step %d wrong transit result %d", step, out)
			}
		default:
			t.Fatalf("step %d missing result (%T)", step, out)
		}
	}
	if shed == 0 {
		t.Fatal("a 1-deep queue with a slow bucket must shed at least one step")
	}
	if rep.Overload.StepsShed != int64(shed) {
		t.Fatalf("StepsShed = %d, want %d", rep.Overload.StepsShed, shed)
	}
	// Each shed is one `shed` event beside the step's one ladder verdict.
	events, admits := map[string]int{}, map[string]int{}
	for _, s := range rec.SpansCat(obs.CatAdmit) {
		events[s.Name]++
		for _, a := range s.Attrs {
			if s.Name == "admit" && a.Key == "level" {
				admits[a.Value]++
			}
		}
	}
	if events["shed"] != shed || events["admit"] != steps {
		t.Fatalf("admit-category events %v, want %d shed and %d admit", events, shed, steps)
	}
	// Every count reconciles with the records it counts: per ladder
	// level, the admit events, the admission_decisions_total sample and
	// the Report field (none for full; StepsShed adds the submit-time
	// sheds) agree.
	var prom strings.Builder
	if err := pl.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	o := rep.Overload
	fields := map[overload.Level]int64{
		overload.LevelDelta:     o.StepsDelta,
		overload.LevelQuantized: o.StepsQuantized,
		overload.LevelShaped:    o.StepsShaped,
		overload.LevelInSitu:    o.StepsFallback,
		overload.LevelShed:      o.StepsShed - int64(shed),
	}
	for lv := overload.LevelFull; lv <= overload.LevelShed; lv++ {
		n := admits[lv.String()]
		if got := metricValue(t, prom.String(), `admission_decisions_total{level="`+lv.String()+`",tenant="a"}`); got != strconv.Itoa(n) {
			t.Errorf("level %s: %d admit events, admission_decisions_total %s", lv, n, got)
		}
		if f, ok := fields[lv]; ok && f != int64(n) {
			t.Errorf("level %s: %d admit events, Report.Overload counts %d", lv, n, f)
		}
	}
	c := p.Credits()
	if c == nil {
		t.Fatal("overload pipeline must expose its credit account")
	}
	if c.Outstanding() != 0 || c.Available() != c.Total() {
		t.Fatalf("credits leaked: outstanding=%d avail=%d total=%d",
			c.Outstanding(), c.Available(), c.Total())
	}
}

// TestOverloadLadderShedsViaCredits: with a tiny credit supply and no
// queue headroom, the admission pass floors routes at the in-situ rung
// the moment credits run dry — before any payload is produced — and
// recovers once the tier drains. Uses an analysis with an in-situ
// fallback so floored steps still yield a value.
func TestOverloadCreditFloorFallsBackInSitu(t *testing.T) {
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Buckets = 1
	cfg.DSServers = 1
	// One bucket and a one-deep queue derive a two-credit supply, which
	// the two routes share as one pool.
	cfg.Overload = &overload.Config{
		QueueBound: 1,
		Breaker:    overload.BreakerConfig{FailureThreshold: 1 << 20, Cooldown: time.Hour},
		Ladder: overload.LadderConfig{
			QueueHigh: 1 << 20, QueueLow: 1 << 19,
			DegradeAfter: 1 << 20, RecoverAfter: 1,
		},
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVizHybrid(24, 18, 8)
	v.Var = "T"
	p.Register(&slowTransitAnalysis{delay: 15 * time.Millisecond})
	p.Register(v)

	rep, err := p.Run(6)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Overload.CreditsDenied == 0 {
		t.Fatal("a 2-credit account under steady submission must deny some acquisitions")
	}
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("%d pinned regions leaked", got)
	}
	c := p.Credits()
	if c.Outstanding() != 0 || c.Available() != c.Total() {
		t.Fatalf("credits leaked: outstanding=%d avail=%d total=%d",
			c.Outstanding(), c.Available(), c.Total())
	}
	// Every viz step must have an outcome: a frame, or a Degraded
	// marker whose reason names the ladder rung.
	for step := 1; step <= 6; step++ {
		out := rep.Result(v.Name(), step)
		if out == nil {
			t.Fatalf("viz step %d has no stored result", step)
		}
	}
}
