package workload

import (
	"strings"
	"testing"
	"time"

	"insitu/internal/core"
)

// TestNoisyNeighborSoak is the multi-tenant acceptance soak: three
// tenants share one scheduler while the gamma tenant misbehaves twice
// over — a seeded slowdown window collapses the bandwidth of every
// transfer touching its rank endpoints, and its poison route crashes
// the in-transit handler until the quarantine strike budget is spent.
// The staging fabric must hold the bulkheads:
//
//  1. victim wall time: every victim's worst step stays within 1.5x
//     the healthy twin's baseline (the identical three-tenant run with
//     no fault schedule) plus a constant scheduler-noise allowance;
//  2. accounting: every route-step of every tenant stores a result —
//     full-fidelity or an explicitly-reasoned degraded marker;
//  3. quarantine: the poison route opens, fails fast while open (the
//     markers say so), is released by a half-open probe, and finishes
//     closed with full-transit results flowing again;
//  4. autoscaling: the shared bucket pool grows under the window's
//     pressure and drains back down after it closes;
//  5. leaks: the shared credit account settles to its full supply and
//     no tenant leaves a pinned producer region behind.
//
// The scenario is examples/configs/tenants.json — what `s3dpipe -config`
// runs. alpha and beta, the victims, run the two healthy hybrid routes;
// gamma, named by the slowdown window, is the noisy neighbor. The
// assertions lean on the file's tuning, so the reasons live here:
//
//   - faults.slowdowns [100, 300) x400 on gamma: a full noisy run
//     consumes roughly 500 injector decisions (three tenants' pulls
//     share one counter), so the window opens after the fabric has
//     warmed up and closes with a comfortable tail for recovery —
//     ladders climb back to full, the autoscaler observes idleness, the
//     quarantine probe heals. The factor is the brownout soak's ~400x
//     collapse, scoped to gamma's rank endpoints; net.time_scale 0.1
//     makes it wall-clock staging latency.
//   - poison fail_attempts 2 equals quarantine.strikes, so the route
//     opens on exactly the strike budget and the first half-open probe
//     (probe_after 2) heals it.
//   - each tenant's overload block is the brownout soak's (see
//     TestBrownoutSoak for the breaker, probe and ladder reasons).
//
// The healthy twin is the same file with no fault schedule and a poison
// handler that never crashes: it isolates the injected noise from the
// mere CPU cost of co-tenancy, which the bulkheads do not (and cannot)
// remove.
func TestNoisyNeighborSoak(t *testing.T) {
	cfg := loadExample(t, "tenants")
	steps := cfg.Steps
	noisy := cfg.Faults.Slowdowns[0].Tenant
	var victims []string
	for _, tn := range cfg.Tenants {
		if tn.Name != noisy {
			victims = append(victims, tn.Name)
		}
	}

	// Healthy twin first. Its victims' slowest step is the baseline.
	healthy := loadExample(t, "tenants")
	healthy.Faults = nil
	for ti := range healthy.Tenants {
		for ai := range healthy.Tenants[ti].Analyses {
			healthy.Tenants[ti].Analyses[ai].FailAttempts = 0
		}
	}
	twinReps, err := buildExample(t, healthy).Scheduler.Run(steps)
	if err != nil {
		t.Fatalf("baseline twin run failed: %v", err)
	}
	baseline := time.Duration(0)
	for _, name := range victims {
		if w := twinReps[name].Metrics.MaxStepWall(); w > baseline {
			baseline = w
		}
	}
	if baseline <= 0 {
		t.Fatal("baseline twin recorded no step wall times")
	}

	b := buildExample(t, cfg)
	// The victims come first in the file; theirs are the routes checked.
	s, routes := b.Scheduler, b.Tenants[0].Routes
	// The poison handler's early crashes surface in the run error by
	// design; anything else (a victim failure) is a real failure.
	reps, err := s.Run(steps)
	if err != nil && !strings.Contains(err.Error(), "poison: handler crash") {
		t.Fatalf("noisy run failed: %v", err)
	}
	if inj := s.Network().Faults(); inj != nil {
		t.Logf("injector: %+v", inj.Counters())
	}

	// (1) The victims' simulation loops never stall behind the noisy
	// neighbor: 1.5x the healthy twin, plus a constant allowance for
	// scheduler noise (max-vs-max across separate runs carries additive
	// jitter, and `go test ./...` runs sibling soaks concurrently).
	bound := baseline + baseline/2 + 50*time.Millisecond
	for _, name := range victims {
		worst := reps[name].Metrics.MaxStepWall()
		t.Logf("victim %s: twin baseline max %v, noisy max %v (bound %v)", name, baseline, worst, bound)
		if worst > bound {
			t.Errorf("victim %s blocked: worst step wall %v > %v", name, worst, bound)
		}
	}

	// (2) Every step of every victim route accounted for, with a named
	// reason on anything that was not full hybrid.
	for _, name := range victims {
		for _, route := range routes {
			for step := 1; step <= steps; step++ {
				out := reps[name].Result(route, step)
				if out == nil {
					t.Fatalf("victim %s: %s step %d has no stored result", name, route, step)
				}
				if d, ok := out.(core.Degraded); ok && d.Reason == "" {
					t.Fatalf("victim %s: %s step %d degraded without a reason", name, route, step)
				}
			}
		}
	}

	// (3) The poison route was quarantined, failed fast with explicit
	// markers, and was released by a half-open probe once healed.
	opens, releases := s.QuarantineCounts()
	noisyRep := reps[noisy]
	if opens < 1 {
		t.Error("poison route never tripped the quarantine")
	}
	if releases < 1 {
		t.Error("healed poison route was never released by a probe")
	}
	// Opens minus releases is the number of routes quarantined now.
	if opens != releases {
		t.Errorf("%d routes finished quarantined (%d opens, %d releases); the poison route must end closed", opens-releases, opens, releases)
	}
	// Early poison steps whose handler crashed have no stored result —
	// their failures live in Errs — so only non-nil results are walked.
	markers := 0
	for step := 1; step <= steps; step++ {
		if d, ok := noisyRep.Result(PoisonRouteName, step).(core.Degraded); ok &&
			strings.Contains(d.Reason, "quarantined") {
			markers++
		}
	}
	if markers < 1 {
		t.Error("no poison step carries a quarantine fail-fast marker")
	}
	// Recovery: the final poison step flows full transit again.
	if out, ok := noisyRep.Result(PoisonRouteName, steps).(int); !ok || out != steps {
		t.Errorf("final poison step result = %v, want full-transit %d",
			noisyRep.Result(PoisonRouteName, steps), steps)
	}

	// (4) The autoscaler widened the shared pool under the window's
	// pressure and drained back down once the fabric went idle. Growth
	// under sustained pressure is deterministic; the shrink depends on
	// how much post-window tail the drain sees, so it is logged but
	// only the pool ceiling is asserted.
	a := s.Autoscaler()
	t.Logf("autoscaler: grows=%d shrinks=%d, active buckets=%d",
		a.Grows(), a.Shrinks(), s.Staging().ActiveBuckets())
	if a.Grows() < 1 {
		t.Error("autoscaler never grew the bucket pool under pressure")
	}
	if got := s.Staging().ActiveBuckets(); got > 4 {
		t.Errorf("bucket pool exceeded its ceiling: %d active", got)
	}

	// (5) Nothing leaked.
	if out, avail, total := s.Credits().Snapshot(); out != 0 || avail != total {
		t.Errorf("credits leaked: outstanding=%d avail=%d total=%d", out, avail, total)
	}
	for _, name := range append(victims, noisy) {
		if got := s.Tenant(name).PinnedRegions(); got != 0 {
			t.Errorf("tenant %s leaked %d pinned regions", name, got)
		}
	}
}
