package overload

import (
	"errors"
	"sync"
	"time"
)

// ErrQuarantined is the typed fail-fast returned (wrapped) when a
// (tenant, analysis) route is quarantined: the route has produced
// poison tasks — tasks that crash their bucket or dead-letter — often
// enough that admitting more of them would burn shared staging
// capacity (bucket respawns, retries, credits) for every tenant.
var ErrQuarantined = errors.New("overload: route quarantined")

// QuarantineConfig tunes the poison-route quarantine. It is also the
// "fabric.quarantine" block of a pipeline config, hence the json tags.
type QuarantineConfig struct {
	// Strikes is the consecutive poison-disposition count (dead-letter
	// or errored final result) that quarantines a route (default 3).
	Strikes int `json:"strikes,omitempty"`
	// ProbeAfter is how many admission denials an open route absorbs
	// before it is allowed one half-open probe (default 4). Denials are
	// the deterministic stand-in for a cooldown clock: one denial per
	// step the route would have submitted.
	ProbeAfter int `json:"probe_after,omitempty"`
}

func (c QuarantineConfig) withDefaults() QuarantineConfig {
	if c.Strikes <= 0 {
		c.Strikes = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 4
	}
	return c
}

type qkey struct{ tenant, analysis string }

// Quarantine tracks poison (tenant, analysis) routes across a shared
// staging fabric: one Breaker per route, driven by *task disposition*
// (dead-letter / handler error) rather than transit health, and cooled
// down by deterministic denial counting rather than a wall clock. It is
// pure policy — no clock, no goroutines — and is safe for concurrent
// use by the admission pass and the drain goroutine.
type Quarantine struct {
	cfg QuarantineConfig

	mu     sync.Mutex
	routes map[qkey]*Breaker

	opens    int64
	releases int64
}

// NewQuarantine returns an empty quarantine ledger.
func NewQuarantine(cfg QuarantineConfig) *Quarantine {
	return &Quarantine{cfg: cfg.withDefaults(), routes: make(map[qkey]*Breaker)}
}

// route returns the route's breaker, making it on first use: Strikes
// failures open it, ProbeAfter denials cool it down, and it admits one
// probe at a time. The caller holds q.mu.
func (q *Quarantine) route(tenant, analysis string) *Breaker {
	k := qkey{tenant, analysis}
	b := q.routes[k]
	if b == nil {
		b = NewBreaker(BreakerConfig{FailureThreshold: q.cfg.Strikes})
		b.probeAfter, b.oneProbe = q.cfg.ProbeAfter, true
		q.routes[k] = b
	}
	return b
}

// Allow answers an admission request for the route. Closed admits;
// Open counts the denial and, once ProbeAfter denials have accumulated,
// transitions to HalfOpen and returns Probe; HalfOpen rejects while its
// one probe task is outstanding.
func (q *Quarantine) Allow(tenant, analysis string) Verdict {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.route(tenant, analysis).Allow(time.Time{})
}

// Settle reports a normally admitted task's final disposition: ok
// resets the strike streak, a poison disposition (dead-letter or
// errored final result) counts a strike and quarantines the route at
// the threshold. It only acts in Closed — stale results from before a
// quarantine opened must not disturb the probe protocol.
func (q *Quarantine) Settle(tenant, analysis string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.route(tenant, analysis)
	if ok {
		b.RecordSuccess(time.Time{}, 0)
		return
	}
	// Only a first trip happens here, which is what Opens counts; the
	// breaker's own count also includes a failed probe's re-open.
	before := b.Opens()
	b.RecordFailure(time.Time{})
	q.opens += b.Opens() - before
}

// RecordProbe reports a probe task's disposition: success releases the
// route back to Closed, failure re-opens it and restarts the denial
// count. It only acts in HalfOpen.
func (q *Quarantine) RecordProbe(tenant, analysis string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.route(tenant, analysis)
	if ok && b.State() == HalfOpen {
		q.releases++
	}
	b.RecordProbe(time.Time{}, ok)
}

// Barred reports whether the route is currently quarantined (open or
// half-open) — the cheap check rank 0 repeats just before it submits,
// to fail fast a task whose route was quarantined after its admission
// pass.
func (q *Quarantine) Barred(tenant, analysis string) bool {
	return q.State(tenant, analysis) != Closed
}

// State returns the route's current position.
func (q *Quarantine) State(tenant, analysis string) BreakerState {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.routes[qkey{tenant, analysis}]
	if b == nil {
		return Closed
	}
	return b.State()
}

// Opens returns how many times any route entered quarantine.
func (q *Quarantine) Opens() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.opens
}

// Releases returns how many times a probe released a route.
func (q *Quarantine) Releases() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.releases
}
