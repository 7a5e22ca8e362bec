package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/codec"
	"insitu/internal/faults"
	"insitu/internal/netsim"
	"insitu/internal/overload"
	"insitu/internal/sim"
	"insitu/internal/staging"
	"insitu/internal/stats"
)

func testSchedCfg() SchedulerConfig {
	return SchedulerConfig{DSServers: 2, Buckets: 2, Net: netsim.Gemini(), QueueBound: 8, TenantReserve: 1}
}

func TestSchedulerValidation(t *testing.T) {
	bad := testSchedCfg()
	bad.DSServers = 0
	if _, err := NewScheduler(bad); err == nil {
		t.Fatal("zero servers must error")
	}
	bad = testSchedCfg()
	bad.Buckets = 0
	if _, err := NewScheduler(bad); err == nil {
		t.Fatal("zero buckets must error")
	}
	bad = testSchedCfg()
	bad.MaxBuckets = 1
	if _, err := NewScheduler(bad); err == nil {
		t.Fatal("MaxBuckets below Buckets must error")
	}

	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(4); err == nil {
		t.Fatal("running with no tenants must error")
	}

	s, err = NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("a", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("a", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err == nil {
		t.Fatal("duplicate tenant must error")
	}
	if _, err := s.AddTenant("", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err == nil {
		t.Fatal("an unnamed tenant must not join a named one")
	}

	// The unnamed tenant is accepted alone, and stays alone.
	s, err = NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err != nil {
		t.Fatalf("lone unnamed tenant: %v", err)
	}
	if _, err := s.AddTenant("b", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err == nil {
		t.Fatal("a named tenant must not join the unnamed one")
	}
}

// TestPipelineRunRefusesSiblings: Pipeline.Run and Resume are the
// scheduler's run for a tenant that has the fabric to itself; with a
// sibling they return an error and leave the scheduler runnable.
func TestPipelineRunRefusesSiblings(t *testing.T) {
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		p, err := s.AddTenant(name, TenantConfig{Sim: testSimConfig(2, 1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsHybrid{})
	}
	if _, err := s.Tenant("a").Run(2); err == nil {
		t.Fatal("Pipeline.Run on a tenant with a sibling must error")
	}
	if _, err := s.Tenant("b").Resume(2); err == nil {
		t.Fatal("Pipeline.Resume on a tenant with a sibling must error")
	}
	if _, err := s.Run(2); err != nil {
		t.Fatalf("Scheduler.Run after the refusals: %v", err)
	}
}

// TestJournalRefusedWithSiblings: the step journal dedups and commits
// by (analysis, step), so it must own the task queue: Run refuses a
// tenant with Recovery once it has a sibling, before anything runs.
func TestJournalRefusedWithSiblings(t *testing.T) {
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := s.AddTenant("a", TenantConfig{Sim: testSimConfig(2, 1, 1), Recovery: &RecoveryConfig{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("b", TenantConfig{Sim: testSimConfig(2, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("Run = %v, want the journal refusal", err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Fatalf("refused run left %d files in the journal directory", len(names))
	}
}

// TestSchedulerMultiTenantEndToEnd: two tenants running the same
// analysis names over one shared fabric stay fully isolated — each
// tenant's hybrid statistics agree with its own in-situ reference, the
// shared credit account settles to full, and no regions leak.
func TestSchedulerMultiTenantEndToEnd(t *testing.T) {
	const steps = 4
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately different decompositions (and therefore different
	// fields) per tenant, same analysis names: results must not bleed.
	simCfgs := map[string]sim.Config{
		"alpha": testSimConfig(2, 1, 1),
		"beta":  testSimConfig(1, 2, 1),
	}
	for name, sc := range simCfgs {
		p, err := s.AddTenant(name, TenantConfig{Sim: sc})
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsInSitu{})
		p.Register(&StatsHybrid{})
	}
	reps, err := s.Run(steps)
	if err != nil {
		t.Fatalf("scheduler run failed: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reps))
	}
	for name := range simCfgs {
		rep := reps[name]
		for step := 1; step <= steps; step++ {
			a, ok := rep.Result("in-situ descriptive statistics", step).(map[string]stats.Derived)
			if !ok {
				t.Fatalf("tenant %s: missing in-situ stats at step %d", name, step)
			}
			b, ok := rep.Result("hybrid descriptive statistics", step).(map[string]stats.Derived)
			if !ok {
				t.Fatalf("tenant %s: missing hybrid stats at step %d", name, step)
			}
			for _, v := range sim.VarNames {
				da, db := a[v], b[v]
				if da.N != db.N || math.Abs(da.Mean-db.Mean) > 1e-9 {
					t.Fatalf("tenant %s step %d var %s: in-situ %+v != hybrid %+v", name, step, v, da, db)
				}
			}
		}
		if got := s.Tenant(name).PinnedRegions(); got != 0 {
			t.Fatalf("tenant %s leaked %d pinned regions", name, got)
		}
	}
	// The two tenants saw different fields (different decompositions
	// evolve identically, so compare alpha/beta means — they SHOULD be
	// equal here since the global problem is the same; what must differ
	// is nothing, but each must have drained through its own route).
	c := s.Credits()
	if c == nil {
		t.Fatal("scheduler must enable the shared credit account")
	}
	if out, avail, total := c.Snapshot(); out != 0 || avail != total {
		t.Fatalf("credits leaked: outstanding=%d avail=%d total=%d", out, avail, total)
	}
	if opens, _ := s.QuarantineCounts(); opens != 0 {
		t.Fatal("healthy tenants must not trip the quarantine")
	}
}

// TestNamedLoneTenantMatchesUnnamed pins the one rule of tenancy: the
// name changes how a lone tenant is accounted — endpoint and codec-key
// prefix, metric label, one tenant-level credit account instead of one
// per route, the quarantine — and nothing it computes. The same
// simulation and hybrid routes, with the same armed overload plane
// (thresholds high enough that it never trips), produce equal result
// digests as NewPipeline's unnamed tenant and as a scheduler's named
// one.
func TestNamedLoneTenantMatchesUnnamed(t *testing.T) {
	const steps = 6
	tcfg := TenantConfig{
		Sim: testSimConfig(2, 1, 1),
		Overload: &overload.Config{
			Breaker: overload.BreakerConfig{
				FailureThreshold: 3, LatencyThreshold: time.Second,
				LatencyAlpha: 0.5, Cooldown: 2 * time.Millisecond,
			},
			Ladder:     overload.LadderConfig{QueueHigh: 48, QueueLow: 16, DegradeAfter: 1, RecoverAfter: 2},
			QueueBound: 64,
		},
		Codecs: map[string]codec.Spec{"*": {ID: codec.Delta}},
	}
	scfg := testSchedCfg()
	scfg.QueueBound, scfg.TenantReserve = 64, 2
	digests := func(name string) string {
		s, err := NewScheduler(scfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.AddTenant(name, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		analyses := []Analysis{&StatsHybrid{}, NewVizHybrid(20, 16, 2), NewTopologyHybrid()}
		for _, a := range analyses {
			p.Register(a)
		}
		rep, err := p.Run(steps)
		if err != nil {
			t.Fatalf("tenant %q: %v", name, err)
		}
		if out, _, _ := s.Credits().Snapshot(); out != 0 {
			t.Fatalf("tenant %q: %d credits outstanding", name, out)
		}
		var b strings.Builder
		for _, a := range analyses {
			for step := 1; step <= steps; step++ {
				res := rep.Result(a.Name(), step)
				if _, bad := res.(Degraded); bad || res == nil {
					t.Fatalf("tenant %q: %s step %d = %v, want a full-fidelity result", name, a.Name(), step, res)
				}
				fmt.Fprintf(&b, "%s@%d %s\n", a.Name(), step, ResultDigest(res))
			}
		}
		return b.String()
	}
	if unnamed, named := digests(""), digests("solo"); named != unnamed {
		t.Errorf("a named lone tenant's digests differ from the unnamed one's\n--- unnamed ---\n%s--- named ---\n%s", unnamed, named)
	}
}

// poisonHybrid fails its first FailAttempts in-transit executions and
// succeeds afterwards. Counting attempts (not steps) keeps the
// open → probe → release sequence deterministic: with FailAttempts ==
// Strikes the route opens on exactly the strike budget and the very
// first half-open probe heals it, independent of how long each result
// takes to drain back.
type poisonHybrid struct {
	FailAttempts int64
	attempts     atomic.Int64
}

func (p *poisonHybrid) Name() string { return "poison" }
func (p *poisonHybrid) Every() int   { return 1 }

func (p *poisonHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (p *poisonHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	if p.attempts.Add(1) <= p.FailAttempts {
		return nil, errors.New("poison: handler crash")
	}
	return step, nil
}

// TestSchedulerQuarantineOpensAndReleases: a route whose handler fails
// repeatedly is quarantined after Strikes failures, fails fast (no
// transit submission) while open, and is released by a successful
// half-open probe once the handler heals — after which full-fidelity
// results flow again.
func TestSchedulerQuarantineOpensAndReleases(t *testing.T) {
	const steps = 30
	cfg := testSchedCfg()
	cfg.Quarantine = overload.QuarantineConfig{Strikes: 2, ProbeAfter: 2}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.AddTenant("noisy", TenantConfig{Sim: testSimConfig(2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&poisonHybrid{FailAttempts: 2})
	reps, _ := s.Run(steps) // poison-step errors are expected in Errs
	rep := reps["noisy"]
	if rep == nil {
		t.Fatal("missing report")
	}
	opens, releases := s.QuarantineCounts()
	if opens == 0 {
		t.Fatal("repeated handler failures must trip the quarantine")
	}
	if releases == 0 {
		t.Fatal("a healed route must be released by a half-open probe")
	}
	if got := p.byName["poison"].poison.State(); got != overload.Closed {
		t.Fatalf("route must end closed, got %v", got)
	}
	// The tail of the run flows at full fidelity again.
	if out, ok := rep.Result("poison", steps).(int); !ok || out != steps {
		t.Fatalf("final step result = %v, want full-transit %d", rep.Result("poison", steps), steps)
	}
	// While quarantined, steps store explicit fail-fast markers (the
	// admission pass floors them in-situ) rather than vanishing.
	sawMarker := false
	for step := 1; step <= steps; step++ {
		if d, ok := rep.Result("poison", step).(Degraded); ok && strings.Contains(d.Reason, "quarantined") {
			sawMarker = true
			break
		}
	}
	if !sawMarker {
		t.Fatal("no step carries a quarantine fail-fast marker")
	}
	if out, avail, total := s.Credits().Snapshot(); out != 0 || avail != total {
		t.Fatalf("credits leaked: outstanding=%d avail=%d total=%d", out, avail, total)
	}
	if got := p.PinnedRegions(); got != 0 {
		t.Fatalf("%d pinned regions leaked", got)
	}
}

// TestQuarantineRoutesAreIndependent: each route has its own poison
// breaker, so the strikes of tenant a's poison route neither open nor
// release a's other route, nor the route of the same name on tenant b,
// and the scheduler's counts are that one route's.
func TestQuarantineRoutesAreIndependent(t *testing.T) {
	const steps = 30
	cfg := testSchedCfg()
	cfg.Quarantine = overload.QuarantineConfig{Strikes: 2, ProbeAfter: 2}
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.AddTenant("a", TenantConfig{Sim: testSimConfig(2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddTenant("b", TenantConfig{Sim: testSimConfig(2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	a.Register(&poisonHybrid{FailAttempts: 2})
	a.Register(&StatsHybrid{Vars: []string{"T"}, EveryN: 1})
	b.Register(&poisonHybrid{})
	s.Run(steps) // the poison route's errors are expected in Errs
	trips, releases := a.byName["poison"].poison.Trips()
	if trips != 1 || releases != 1 {
		t.Fatalf("a/poison tripped %d and was released %d times, want 1 and 1", trips, releases)
	}
	for _, rt := range []*route{a.routes[1], b.byName["poison"]} {
		if trips, releases := rt.poison.Trips(); trips != 0 || releases != 0 {
			t.Errorf("route %s shares a/poison's quarantine: %d trips, %d releases", rt.name, trips, releases)
		}
	}
	if opens, rel := s.QuarantineCounts(); opens != trips || rel != releases {
		t.Errorf("scheduler counts %d opens, %d releases, want a/poison's %d and %d", opens, rel, trips, releases)
	}
}

// TestUnnamedTenantIsNeverQuarantined pins the unnamed tenant's rule: a
// lone unnamed tenant's routes have no poison breaker, so an
// always-failing route under an admission plane is never quarantined —
// its transit breaker is what acts on it.
func TestUnnamedTenantIsNeverQuarantined(t *testing.T) {
	const steps = 12
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.AddTenant("", TenantConfig{Sim: testSimConfig(2, 1, 1), Overload: &overload.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&poisonHybrid{FailAttempts: steps})
	rep, _ := p.Run(steps) // every in-transit attempt fails on purpose
	if rep == nil {
		t.Fatal("missing report")
	}
	for step := 1; step <= steps; step++ {
		if d, ok := rep.Result("poison", step).(Degraded); ok && strings.Contains(d.Reason, "quarantin") {
			t.Fatalf("step %d = %q: the unnamed tenant was quarantined", step, d.Reason)
		}
	}
	if opens, releases := s.QuarantineCounts(); opens != 0 || releases != 0 {
		t.Fatalf("quarantine opened %d and released %d times, want 0 and 0", opens, releases)
	}
	if rep.Overload.BreakerOpens == 0 {
		t.Fatal("the route's transit breaker never opened on an always-failing route")
	}
}

// TestTenantEnableObsSharesSchedulerPlane: the observability plane
// belongs to the fabric, so EnableObs on a tenant pipeline and on its
// scheduler return the one plane, idempotently, whichever is called
// first. A tenant used to build a private plane and re-point the shared
// transport at it, hijacking the other tenants' spans and registering
// unlabelled families.
func TestTenantEnableObsSharesSchedulerPlane(t *testing.T) {
	for _, tenantFirst := range []bool{false, true} {
		s, err := NewScheduler(testSchedCfg())
		if err != nil {
			t.Fatal(err)
		}
		tenants := make(map[string]*Pipeline)
		for _, name := range []string{"alpha", "beta"} {
			p, err := s.AddTenant(name, TenantConfig{Sim: testSimConfig(2, 1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			p.Register(&StatsHybrid{})
			tenants[name] = p
		}
		var fromTenant, fromSched = tenants["alpha"].EnableObs, s.EnableObs
		first, second := fromSched, fromTenant
		if tenantFirst {
			first, second = fromTenant, fromSched
		}
		pl := first()
		if pl == nil || second() != pl {
			t.Fatalf("tenantFirst=%v: tenant and scheduler EnableObs returned different planes", tenantFirst)
		}
		if s.EnableObs() != pl || tenants["alpha"].EnableObs() != pl || tenants["beta"].EnableObs() != pl {
			t.Fatalf("tenantFirst=%v: EnableObs is not idempotent", tenantFirst)
		}
		if _, err := s.Run(3); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pl.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, want := range []string{
			`pipeline_tasks_completed_total{tenant="alpha"} 3`,
			`pipeline_tasks_completed_total{tenant="beta"} 3`,
			`breaker_transitions_total{tenant="alpha"} 0`,
			`breaker_transitions_total{tenant="beta"} 0`,
			"quarantine_opens_total 0",
		} {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("tenantFirst=%v: /metrics lacks %q", tenantFirst, want)
			}
		}
		for _, unlabelled := range []string{"pipeline_tasks_completed_total ", "breaker_opens_total ", "admission_decisions_total{level=\"full\"} "} {
			if strings.Contains(text, "\n"+unlabelled) {
				t.Errorf("tenantFirst=%v: /metrics has an unlabelled tenant family %q", tenantFirst, unlabelled)
			}
		}
	}
}

// TestTenantReportHoldsOnlyItsOwnFailures: a Report's retry and
// dead-letter counts are its tenant's own. Every pull from tenant a's
// rank endpoints drops, so a's tasks retry and dead-letter while b's
// pulls are clean: a's report carries every retry and dead letter, b's
// none, and the tenants' dead-letter counts sum to the dead-lettered
// steps the reports hold.
func TestTenantReportHoldsOnlyItsOwnFailures(t *testing.T) {
	const steps = 6
	s, err := NewScheduler(testSchedCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		p, err := s.AddTenant(name, TenantConfig{Sim: testSimConfig(2, 1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		p.Register(&StatsHybrid{Vars: []string{"T"}, EveryN: 1})
	}
	drop := map[int]faults.Rates{}
	for _, ep := range s.TenantEndpoints("a") {
		drop[ep.ID()] = faults.Rates{Drop: 1}
	}
	s.Network().SetFaults(faults.New(faults.Config{Seed: 1, PerEndpoint: drop}))
	reps, err := s.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	a, b := reps["a"].Resilience, reps["b"].Resilience
	if a.DeadLetters == 0 || a.Retries == 0 {
		t.Fatalf("tenant a: %d dead letters, %d retries; want both > 0", a.DeadLetters, a.Retries)
	}
	if b.DeadLetters != 0 || b.Retries != 0 {
		t.Fatalf("tenant b: %d dead letters, %d retries; want 0 (a's failures are not b's)", b.DeadLetters, b.Retries)
	}
	var deadLettered int64
	for _, rep := range reps {
		for _, byStep := range rep.Results {
			for _, res := range byStep {
				if d, ok := res.(Degraded); ok && strings.Contains(d.Reason, staging.ErrDeadLetter.Error()) {
					deadLettered++
				}
			}
		}
	}
	if sum := a.DeadLetters + b.DeadLetters; sum != deadLettered {
		t.Fatalf("tenants report %d dead letters in all, their results hold %d dead-lettered steps", sum, deadLettered)
	}
}
