package core

import (
	"fmt"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/obs"
	"insitu/internal/overload"
)

// admitDecision is rank 0's admission verdict on one route for one
// step, broadcast (as a slice indexed like Pipeline.routes) so every
// rank takes the same branch (the in-situ fallbacks use collectives).
// Probe marks the single task a quarantined route is allowed to send
// while half-open.
type admitDecision struct {
	Level  overload.Level
	Reason string
	// Credited marks a step that drew a transit credit from the
	// tenant's account.
	Credited bool
	Probe    bool
}

// admitStep is rank 0's admission pass for one step: for every hybrid
// analysis due, consult the route's breaker (running the half-open
// probe when asked), fold the pressure signals into the admission
// ladder, and acquire a transit credit for levels that will submit.
// A route that cannot get a credit floors at the in-situ rung for the
// step — admission never blocks and never over-commits the tier.
func (p *Pipeline) admitStep(ep *dart.Endpoint, step int) []admitDecision {
	out := make([]admitDecision, len(p.routes))
	stepMax := overload.LevelFull
	credits := p.sched.Credits()
	p.queue.Observe(float64(p.sched.ds.QueueDepthT(p.tenant)))
	for i, rt := range p.routes {
		if rt.stage == nil || !rt.due(step) {
			continue
		}
		out[i] = p.admitRoute(ep, rt, credits, step)
		p.observeAdmit(step, rt.name, out[i])
		stepMax = max(stepMax, out[i].Level)
	}
	// The worst level of this pass is the tenant's pressure signal for
	// the scheduler's autoscaler (atomic: the drain goroutine reads it).
	p.curLevel.Store(int64(stepMax))
	return out
}

// admitRoute reaches one due hybrid route's verdict for the step.
func (p *Pipeline) admitRoute(ep *dart.Endpoint, rt *route, credits *dataspaces.Credits, step int) admitDecision {
	name := rt.name
	// Quarantine outranks the breaker: a poisoned route fails in the
	// handler, not in transit, so transit-health probing cannot clear
	// it. A rejected route floors at the in-situ rung without touching
	// breaker, ladder, or credits; a half-open route sends exactly one
	// full-fidelity probe task.
	if q := rt.poison; q != nil {
		prev := q.State()
		v := q.Allow(time.Time{})
		p.observeBreaker("quarantine.transition", name, prev, q.State(), step)
		switch v {
		case overload.Reject:
			return admitDecision{Level: overload.LevelInSitu, Reason: "in-situ: route quarantined"}
		case overload.Probe:
			if !p.acquireCredit(credits) {
				// No capacity to probe with: the attempt is spent, the
				// route stays quarantined until the next probe window.
				p.failProbe(rt, step)
				return admitDecision{Level: overload.LevelInSitu, Reason: "in-situ: quarantine probe denied credit"}
			}
			return admitDecision{Level: overload.LevelFull,
				Reason: "full: quarantine half-open probe", Credited: true, Probe: true}
		}
	}
	prev := rt.breaker.State()
	if rt.breaker.Allow(time.Now()) == overload.Probe {
		ok := p.probeRoute(ep)
		rt.breaker.RecordProbe(time.Now(), ok)
	}
	cur := rt.breaker.State()
	p.observeBreaker("breaker.transition", name, prev, cur, step)

	sig := overload.Signals{
		BreakerOpen:      cur != overload.Closed,
		CreditsExhausted: credits.Exhausted(p.tenant),
		QueueDepth:       p.queue.Value(),
	}
	level := rt.ladder.Observe(sig)
	reason := fmt.Sprintf("%s: breaker %s, queue %.1f", level, cur, sig.QueueDepth)
	// Analyses whose payload exposes no float tail skip the
	// quantized rung (the delta rung applies to every route: delta
	// frames are exact and self-contained).
	if level == overload.LevelQuantized && rt.quant == nil {
		level = overload.LevelShaped
		reason = "shaped: no quantizable stage; " + reason
	}
	// Analyses without a shaped stage skip that rung.
	if level == overload.LevelShaped && rt.shaped == nil {
		level = overload.LevelInSitu
		reason = "in-situ: no shaped stage; " + reason
	}
	credited := false
	if level <= overload.LevelShaped {
		if credited = p.acquireCredit(credits); !credited {
			level = overload.LevelInSitu
			reason = "in-situ: no transit credit; " + reason
		}
	}
	return admitDecision{Level: level, Reason: reason, Credited: credited}
}

// acquireCredit draws one transit credit from the tenant's account,
// counting a refusal as the tenant's credit denial. Each credit it
// grants comes back once, through releaseCredit.
func (p *Pipeline) acquireCredit(credits *dataspaces.Credits) bool {
	if credits.Acquire(p.tenant) {
		return true
	}
	p.creditsDenied.Add(1)
	return false
}

// releaseCredit returns a credited task's transit credit to the
// tenant's account. It has two callers: handleResult, for a task's one
// final result, and discardStaged, for a task that never reached the
// queue. A requeue is neither, so a retried task keeps its credit.
func (p *Pipeline) releaseCredit(credited bool) {
	if credited {
		p.sched.Credits().Release(p.tenant)
	}
}

// probeRoute runs the half-open health probe: a tiny Get against the
// staging area's probe region. The verdict uses the *modeled* transfer
// duration against ProbeLatencyMax, so a browned-out tier — slow but
// delivering — fails the probe even though the wall time of a 16-byte
// pull is negligible either way. The wall time is additionally bounded
// by a real deadline so a stalled fabric cannot block admission.
func (p *Pipeline) probeRoute(ep *dart.Endpoint) bool {
	deadline := time.Now().Add(p.ov.ProbeLatencyMax + 50*time.Millisecond)
	data, modeled, err := ep.GetDeadline(p.sched.area.ProbeHandle(), deadline)
	if err != nil {
		return false
	}
	bufpool.Put(data)
	return modeled <= p.ov.ProbeLatencyMax
}

// observeAdmit records one admission verdict: the per-level tally,
// plus an admission event carrying the ladder's reasoning when the
// plane is attached.
func (p *Pipeline) observeAdmit(step int, name string, d admitDecision) {
	p.verdicts[d.Level].Add(1)
	if p.sched.plane == nil {
		return
	}
	p.event(obs.CatAdmit, "overload", "admit",
		obs.Str("analysis", name),
		obs.Str("level", d.Level.String()),
		obs.Int("step", step),
		obs.Bool("credited", d.Credited),
		obs.Str("reason", d.Reason))
}

// observeBreaker records a transition of a route's breaker as an
// admission-category event: a "breaker.transition" of its transit
// breaker, a "quarantine.transition" of its poison breaker.
func (p *Pipeline) observeBreaker(kind, name string, prev, cur overload.BreakerState, step int) {
	if prev != cur {
		p.event(obs.CatAdmit, "overload", kind,
			obs.Str("analysis", name), obs.Str("from", prev.String()),
			obs.Str("to", cur.String()), obs.Int("step", step))
	}
}

// failProbe spends a quarantine probe that never reached the queue as
// a failed one: the route re-opens until its next probe window.
func (p *Pipeline) failProbe(rt *route, step int) {
	prev := rt.poison.State()
	rt.poison.RecordProbe(time.Time{}, false)
	p.observeBreaker("quarantine.transition", rt.name, prev, rt.poison.State(), step)
}

// event records one instant event on the plane with the tenant label
// appended (nothing without a plane).
func (p *Pipeline) event(cat, lane, name string, attrs ...obs.Attr) {
	if pl := p.sched.plane; pl != nil {
		pl.Recorder().Event(0, cat, lane, name, time.Now(), append(attrs, p.labels...)...)
	}
}

// ladderSpec maps an admission level onto the codec spec for the step:
// the delta and quantized rungs override the configured codec, other
// levels keep it. A quantized rung inherits the route's configured
// error bound when the config already selects quantize.
func ladderSpec(level overload.Level, cfg codec.Spec) codec.Spec {
	switch level {
	case overload.LevelDelta:
		return codec.Spec{ID: codec.Delta}
	case overload.LevelQuantized:
		q := codec.Spec{ID: codec.Quantize}
		if cfg.ID == codec.Quantize {
			q.MaxError = cfg.MaxError
		}
		return q
	}
	return cfg
}
