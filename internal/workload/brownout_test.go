package workload

import (
	"strings"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/overload"
	"insitu/internal/render"
)

// TestBrownoutSoak is the overload-control acceptance soak, run on
// examples/configs/brownout.json — what `s3dpipe -config` runs: a
// seeded slow-consumer window collapses staging bandwidth mid-run, and
// the control plane must (1) keep every simulation step's wall time
// within 2x the unloaded baseline, (2) mark every shaped and shed step
// with a ladder reason, (3) trip each route's breaker open and re-close
// it through the half-open probe, (4) return to full hybrid before the
// run ends, and (5) leak neither credits, pinned regions nor pooled
// framebuffers.
//
// The assertions lean on the file's tuning, so the reasons live here:
//
//   - faults.slowdowns [16, 48) x400 is in decision-index space: roughly
//     four healthy steps' worth of pulls run first, then the window
//     stays open until backlog pulls and failed half-open probes have
//     consumed it. The six-rung ladder (full → delta → quantized →
//     shaped → in-situ → shed) needs that long a window: the
//     byte-shrinking rungs still submit tasks, so each extra descent
//     costs several pull decisions before pressure reaches the shed
//     rung. The x400 factor is the "slow consumer"; the seed only pins
//     the injector's decision sequence (the schedule is pure window).
//   - net.time_scale 0.1 turns modeled durations into real sleeps, so
//     the collapse shows up as wall-clock staging latency the breaker
//     and the estimator can observe.
//   - breaker: latency_threshold_us 5000 at latency_alpha 0.5 means two
//     browned-out completions push the success-latency EWMA over the
//     threshold and trip the route; cooldown_us 2000 is short against
//     the step cadence, so a half-open probe runs nearly every step
//     while open.
//   - probe_latency_max_us 50 is compared with the *modeled* probe
//     duration: healthy ~1.5us, browned-out ~400x that. 50us separates
//     the two deterministically, independent of scheduler noise.
//   - ladder: the latency watermarks stay off. The latency EWMA only
//     moves when tasks complete, so a shedding route would pin it high
//     and never observe recovery; breaker state, credit availability
//     and queue depth (queue_high 3 / queue_low 1) are the live signals.
func TestBrownoutSoak(t *testing.T) {
	cfg := loadExample(t, "brownout")
	steps := cfg.Steps

	// Unloaded twin first — the identical pipeline without the fault
	// schedule: its slowest step is the baseline.
	healthy := *cfg
	healthy.Faults = nil
	baseRep, err := buildExample(t, &healthy).Pipeline.Run(steps)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	baseline := baseRep.Metrics.MaxStepWall()
	if baseline <= 0 {
		t.Fatal("baseline recorded no step wall times")
	}

	b := buildExample(t, cfg)
	p, routes := b.Pipeline, b.Tenants[0].Routes
	framesBefore := render.ImagesOutstanding()
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatalf("brownout run failed: %v", err)
	}

	// (1) Bounded per-step simulation wall time: 2x the unloaded twin,
	// plus a constant allowance for scheduler noise — max-vs-max across
	// two separate runs carries additive jitter that does not scale
	// with the baseline, and `go test ./...` runs sibling packages'
	// soaks concurrently on the same (possibly single-CPU) box.
	bound := 2*baseline + 50*time.Millisecond
	worst := rep.Metrics.MaxStepWall()
	t.Logf("step wall: baseline max %v, brownout max %v (bound %v)", baseline, worst, bound)
	if worst > bound {
		for s, d := range rep.Metrics.StepWalls() {
			if d > bound {
				t.Errorf("step %d wall %v exceeds bound %v", s, d, bound)
			}
		}
		t.Fatalf("simulation blocked: worst step wall %v > %v", worst, bound)
	}

	// (2) Every step of every route accounted for, with markers naming
	// the ladder rung on anything that was not full hybrid.
	o := rep.Overload
	t.Logf("overload: %+v", o)
	t.Logf("resilience: %+v", rep.Resilience)
	degradedTail := 0
	for _, name := range routes {
		for step := 1; step <= steps; step++ {
			out := rep.Result(name, step)
			if out == nil {
				t.Fatalf("%s step %d has no stored result", name, step)
			}
			if d, ok := out.(core.Degraded); ok {
				if d.Reason == "" {
					t.Fatalf("%s step %d degraded without a reason", name, step)
				}
				if step > steps-5 {
					degradedTail++
					t.Errorf("%s step %d still degraded at run end: %s", name, step, d.Reason)
				}
			}
		}
	}
	// (4) Full recovery: the final steps run full hybrid on every route.
	if degradedTail > 0 {
		t.Fatalf("%d route-steps in the final 5 steps still degraded", degradedTail)
	}

	// (3) Graded degradation happened and was counted: the ladder
	// shaped before it shed, and the breakers tripped and re-closed.
	if o.StepsShaped < 1 {
		t.Error("no steps were shaped")
	}
	if o.StepsShed < 1 {
		t.Error("no steps were shed")
	}
	if o.BreakerOpens < 1 {
		t.Error("no breaker ever opened")
	}
	// closed->open->half-open->closed is 3 transitions minimum.
	if o.BreakerTransitions < 3 {
		t.Errorf("breaker transitions %d: no half-open probe cycle", o.BreakerTransitions)
	}
	for name, st := range p.BreakerStates() {
		if st != overload.Closed {
			t.Errorf("route %q breaker finished %v, want closed", name, st)
		}
	}
	// Shed and in-situ fallback markers carry the ladder reason, one
	// per counted step.
	shedMarked, fallbackMarked := 0, 0
	for _, name := range routes {
		for step := 1; step <= steps; step++ {
			if d, ok := rep.Result(name, step).(core.Degraded); ok {
				switch {
				case strings.HasPrefix(d.Reason, "shed"):
					shedMarked++
				case strings.HasPrefix(d.Reason, "in-situ"):
					fallbackMarked++
				}
			}
		}
	}
	if int64(shedMarked) != o.StepsShed {
		t.Errorf("shed markers %d != StepsShed %d", shedMarked, o.StepsShed)
	}
	if int64(fallbackMarked) != o.StepsFallback {
		t.Errorf("in-situ fallback markers %d != StepsFallback %d", fallbackMarked, o.StepsFallback)
	}
	if r := rep.Resilience; r.DegradedSteps != o.StepsFallback+r.DeadLetters {
		t.Errorf("DegradedSteps %d != StepsFallback %d + DeadLetters %d", r.DegradedSteps, o.StepsFallback, r.DeadLetters)
	}

	// (5) Nothing leaked: the credit account drains to its full supply,
	// no producer region stays pinned, and every frame the viz route
	// rendered — full, delta, quantized, shaped or in-situ fallback —
	// went through the frame sink and back to the pool.
	c := p.Credits()
	if c.Outstanding() != 0 || c.Available() != c.Total() {
		t.Errorf("credits leaked: outstanding=%d avail=%d total=%d",
			c.Outstanding(), c.Available(), c.Total())
	}
	if got := p.PinnedRegions(); got != 0 {
		t.Errorf("%d pinned regions leaked", got)
	}
	if leaked := render.ImagesOutstanding() - framesBefore; leaked != 0 {
		t.Errorf("%d pooled framebuffers leaked", leaked)
	}
}
