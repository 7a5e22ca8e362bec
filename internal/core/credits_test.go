package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/dataspaces"
	"insitu/internal/faults"
	"insitu/internal/obs"
	"insitu/internal/overload"
	"insitu/internal/staging"
)

// TestCreditSettlesOnEveryFinalResult: handleResult settles a task's
// credit once, against its tenant's account, for every kind of final
// result; a task that holds no credit settles nothing. The supply is
// one the two bulkhead reservations (the tenant's and a sibling's)
// consume whole, so the credit must refill the tenant's reservation
// rather than the shared pool or an account named after the analysis,
// whether or not the tenant is named.
func TestCreditSettlesOnEveryFinalResult(t *testing.T) {
	handlerErr := errors.New("handler crash")
	deadLetter := fmt.Errorf("%w: pulls dropped", staging.ErrDeadLetter)
	for _, tc := range []struct {
		name, tenant string
		res          staging.Result
		uncredited   bool
	}{
		{name: "success", res: staging.Result{Output: 1}},
		{name: "shaped", res: staging.Result{Output: 1}},
		{name: "handler error", res: staging.Result{Err: handlerErr}},
		{name: "dead letter", res: staging.Result{Err: deadLetter, DeadLetter: true}},
		{name: "uncredited", res: staging.Result{Output: 1}, uncredited: true},
		{name: "named tenant", tenant: "a", res: staging.Result{Output: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewScheduler(testSchedCfg())
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.AddTenant(tc.tenant, TenantConfig{Sim: testSimConfig(2, 1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			a := &slowTransitAnalysis{}
			if err := p.Register(a); err != nil {
				t.Fatal(err)
			}
			c, err := dataspaces.NewCredits(2, map[string]int{tc.tenant: 1, "b": 1})
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			s.credits = c
			s.mu.Unlock()
			res := tc.res
			res.Task = dataspaces.Task{TaskSpec: dataspaces.TaskSpec{
				Tenant: tc.tenant, Analysis: a.Name(), Step: 1, Shaped: tc.name == "shaped",
			}}
			if !tc.uncredited {
				if !c.Acquire(tc.tenant) {
					t.Fatal("acquire must succeed")
				}
				res.Task.Credited = true
			}
			if !c.Acquire("b") {
				t.Fatal("acquire b must succeed")
			}
			p.handleResult(&res)
			if !c.Exhausted("b") {
				t.Fatal("the tenant's credit went to the shared pool, not back to its reservation")
			}
			c.Release("b")
			if out, avail, total := c.Snapshot(); out != 0 || avail != total {
				t.Fatalf("after one final result: outstanding %d available %d total %d", out, avail, total)
			}
			if rep := p.finishReport(); rep.Result(a.Name(), 1) == nil && len(rep.Errs) == 0 {
				t.Fatal("the final result left neither a stored value nor an error")
			}
		})
	}
}

// creditWatch is a hybrid analysis that, inside each in-transit
// attempt its handler runs, reads the credit account it was admitted
// against.
type creditWatch struct {
	p           *Pipeline
	calls       atomic.Int64
	outstanding atomic.Int64 // Outstanding() seen by the first attempt the handler ran
}

func (c *creditWatch) Name() string { return "credit watch" }
func (c *creditWatch) Every() int   { return 1 }

func (c *creditWatch) InSituStage(ctx *Ctx) ([]byte, error) {
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (c *creditWatch) InTransit(step int, payloads [][]byte) (any, error) {
	if c.calls.Add(1) == 1 {
		c.outstanding.Store(int64(c.p.Credits().Outstanding()))
	}
	return step, nil
}

// creditPipeline builds a one-bucket standalone pipeline with a credit
// account whose breaker and ladder never move, running a creditWatch
// route.
func creditPipeline(t *testing.T) (*Pipeline, *creditWatch) {
	t.Helper()
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Buckets, cfg.DSServers = 1, 1
	cfg.Overload = &overload.Config{
		Breaker: overload.BreakerConfig{FailureThreshold: 1 << 20, Cooldown: time.Hour},
		Ladder: overload.LadderConfig{
			QueueHigh: 1 << 20, QueueLow: 1 << 19,
			DegradeAfter: 1 << 20, RecoverAfter: 1,
		},
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &creditWatch{p: p}
	if err := p.Register(w); err != nil {
		t.Fatal(err)
	}
	return p, w
}

// checkDrained fails unless the account holds no credit.
func checkDrained(t *testing.T, c *dataspaces.Credits) {
	t.Helper()
	if c == nil {
		t.Fatal("no credit account")
	}
	if out, avail, total := c.Snapshot(); out != 0 || avail != total {
		t.Fatalf("credits leaked: outstanding %d available %d total %d", out, avail, total)
	}
}

// TestCreditHeldAcrossRequeue: a requeue is not a final result, so the
// task keeps its credit. The only bucket crashes at its first
// assignment; the task is requeued and its retry is the first attempt
// the handler runs. A one-step run admits nothing else, so the retry
// must see its own credit still outstanding, and the one final result
// settles it.
func TestCreditHeldAcrossRequeue(t *testing.T) {
	p, w := creditPipeline(t)
	p.sched.Staging().CrashBucket(0)
	rep, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilience.Requeues != 1 {
		t.Fatalf("requeues = %d, want the crash's 1", rep.Resilience.Requeues)
	}
	if w.calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want once (the retry)", w.calls.Load())
	}
	if got := w.outstanding.Load(); got != 1 {
		t.Fatalf("the retried attempt saw %d credits outstanding, want its own 1", got)
	}
	if out, ok := rep.Result(w.Name(), 1).(int); !ok || out != 1 {
		t.Fatalf("step 1 result = %v, want the transit value 1", rep.Result(w.Name(), 1))
	}
	checkDrained(t, p.Credits())
}

// TestCreditSettlesOnceOnDeadLetter: every pull from the ranks drops,
// so the one task is requeued until its attempt budget is gone and
// then dead-letters. It keeps its credit across both requeues and the
// dead letter settles it once: a settle per attempt would release a
// credit nobody holds, which panics.
func TestCreditSettlesOnceOnDeadLetter(t *testing.T) {
	p, w := creditPipeline(t)
	drop := map[int]faults.Rates{}
	for _, ep := range p.sched.TenantEndpoints("") {
		drop[ep.ID()] = faults.Rates{Drop: 1}
	}
	p.sched.Network().SetFaults(faults.New(faults.Config{Seed: 1, PerEndpoint: drop}))
	rep, err := p.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilience.DeadLetters != 1 || rep.Resilience.Requeues != 2 {
		t.Fatalf("%d dead letters after %d requeues, want 1 after 2", rep.Resilience.DeadLetters, rep.Resilience.Requeues)
	}
	if d, ok := rep.Result(w.Name(), 1).(Degraded); !ok || !strings.Contains(d.Reason, staging.ErrDeadLetter.Error()) {
		t.Fatalf("step 1 result = %v, want a dead-letter marker", rep.Result(w.Name(), 1))
	}
	checkDrained(t, p.Credits())
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("%d pinned regions leaked", got)
	}
}

// meeting is where the two step-1 attempts of the rendezvous routes
// meet; the second to arrive closes both.
type meeting struct {
	arrived atomic.Int64
	both    chan struct{}
}

// rendezvous is a hybrid analysis whose step-1 in-transit attempts wait
// for each other, so two of them hold both buckets at once; the second
// to arrive retires a bucket before either returns. The retired bucket
// is therefore mid-task.
type rendezvous struct {
	name string
	s    *Scheduler
	m    *meeting
}

func (r *rendezvous) Name() string { return r.name }
func (r *rendezvous) Every() int   { return 1 }

func (r *rendezvous) InSituStage(ctx *Ctx) ([]byte, error) {
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (r *rendezvous) InTransit(step int, payloads [][]byte) (any, error) {
	if step != 1 {
		return step, nil
	}
	if r.m.arrived.Add(1) == 2 {
		r.s.Staging().RetireBucket()
		close(r.m.both)
	}
	select {
	case <-r.m.both:
		return step, nil
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("%s: the other step-1 task never held the second bucket", r.name)
	}
}

// TestRetiredBucketStillSettles: a bucket retired while it holds a task
// finishes the task, and the task's one final result settles its
// credit against the named tenant's account like any other.
func TestRetiredBucketStillSettles(t *testing.T) {
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.AddTenant("t", TenantConfig{Sim: testSimConfig(2, 1, 1), Overload: &overload.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	m := &meeting{both: make(chan struct{})}
	for _, name := range []string{"left", "right"} {
		if err := p.Register(&rendezvous{name: name, s: s, m: m}); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"left", "right"} {
		if out, ok := reps["t"].Result(name, 1).(int); !ok || out != 1 {
			t.Fatalf("%s step 1 = %v, want the transit value 1", name, reps["t"].Result(name, 1))
		}
	}
	if got := s.Staging().ActiveBuckets(); got != 1 {
		t.Fatalf("%d active buckets, want 1 after the retire", got)
	}
	checkDrained(t, s.Credits())
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("%d pinned regions leaked", got)
	}
}

// quarantineMidStep is a hybrid analysis whose in-situ stage, on rank 0
// at step `at`, strikes its own route's poison breaker into quarantine:
// the route opens after rank 0's admission pass granted the step and
// before its submit.
type quarantineMidStep struct {
	p       *Pipeline
	at      int
	strikes int
}

func (q *quarantineMidStep) Name() string { return "barred" }
func (q *quarantineMidStep) Every() int   { return 1 }

func (q *quarantineMidStep) InSituStage(ctx *Ctx) ([]byte, error) {
	if ctx.Step == q.at && ctx.Comm.ID() == 0 {
		rt := q.p.byName[q.Name()]
		prev := rt.poison.State()
		for range q.strikes {
			rt.poison.RecordFailure(time.Time{})
		}
		// Record the trip as the drain records a result's.
		q.p.observeBreaker("quarantine.transition", rt.name, prev, rt.poison.State(), ctx.Step)
	}
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (q *quarantineMidStep) InTransit(step int, payloads [][]byte) (any, error) {
	return step, nil
}

// TestQuarantineRecheckAtSubmit: rank 0 re-checks the quarantine just
// before it submits. A route quarantined between its admission pass
// and its submit sheds the step — an expected outcome, not an error —
// returning the step's credit and unpinning its inputs, while the
// half-open probe the quarantine later grants still reaches the queue
// and releases the route. Step 1 has no earlier task in flight, so no
// success can reset the strike streak while the stage strikes.
func TestQuarantineRecheckAtSubmit(t *testing.T) {
	const steps, strikes = 8, 2
	cfg := testSchedCfg()
	cfg.Quarantine = overload.QuarantineConfig{Strikes: strikes, ProbeAfter: 2}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.AddTenant("noisy", TenantConfig{Sim: testSimConfig(2, 1, 1), Overload: &overload.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	a := &quarantineMidStep{p: p, at: 1, strikes: strikes}
	if err := p.Register(a); err != nil {
		t.Fatal(err)
	}
	rec := s.EnableObs().Recorder()
	reps, err := s.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps["noisy"]
	d, ok := rep.Result(a.Name(), 1).(Degraded)
	if !ok || !strings.HasPrefix(d.Reason, "shed:") || !strings.Contains(d.Reason, "quarantined") {
		t.Fatalf("step 1 = %#v, want a shed marker naming the quarantine", rep.Result(a.Name(), 1))
	}
	if len(rep.Errs) != 0 {
		t.Fatalf("a quarantine shed is expected, not an error: %v", rep.Errs)
	}
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("%d pinned regions leaked", got)
	}
	checkDrained(t, s.Credits())
	if opens, releases := s.QuarantineCounts(); opens != 1 || releases != 1 {
		t.Fatalf("quarantine opened %d and released %d times, want 1 and 1 (a probe reached the queue)", opens, releases)
	}
	// The poison breaker's transitions are events: one trip, and the
	// probe result's one release.
	moves := map[string]int{}
	for _, sp := range rec.SpansCat(obs.CatAdmit) {
		if sp.Name == "quarantine.transition" && attr(sp, "analysis") == a.Name() && attr(sp, "tenant") == "noisy" {
			moves[attr(sp, "from")+"->"+attr(sp, "to")]++
		}
	}
	if moves["closed->open"] != 1 || moves["half-open->closed"] != 1 {
		t.Fatalf("quarantine.transition events %v, want one closed->open and one half-open->closed", moves)
	}
	if out, ok := rep.Result(a.Name(), steps).(int); !ok || out != steps {
		t.Fatalf("final step = %v, want full-transit %d", rep.Result(a.Name(), steps), steps)
	}
}

// TestScrapeDuringMultiTenantRun: /metrics is scraped while a
// three-tenant run with a credit account is in flight, so under -race
// every scrape-time closure — the scheduler's credit gauges among
// them — runs concurrently with the loops that mutate what it reads.
// After the run the credit families show a full, idle account.
func TestScrapeDuringMultiTenantRun(t *testing.T) {
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		p, err := s.AddTenant(name, TenantConfig{Sim: testSimConfig(2, 1, 1), Overload: &overload.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsHybrid{Vars: []string{"T"}, EveryN: 1})
		p.Register(&slowTransitAnalysis{delay: time.Millisecond})
	}
	pl := s.EnableObs()
	stop, scraped := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { scraped <- n }()
		for {
			var sb strings.Builder
			if err := pl.Registry().WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			s.Status()
			n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	_, err = s.Run(6)
	close(stop)
	if n := <-scraped; n < 2 {
		t.Fatalf("%d scrapes ran, want several during the run", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := pl.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	total := metricValue(t, text, "credits_total")
	if n, err := strconv.Atoi(total); err != nil || n <= 0 {
		t.Fatalf("credits_total = %q, want the armed account's supply", total)
	}
	if got := metricValue(t, text, "credits_available"); got != total {
		t.Fatalf("credits_available = %s, want all %s back", got, total)
	}
	if got := metricValue(t, text, "credits_outstanding"); got != "0" {
		t.Fatalf("credits_outstanding = %s, want 0", got)
	}
}
