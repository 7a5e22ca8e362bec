// Package overload is the control-plane policy layer of the pipeline's
// overload protection: it decides, per step and per analysis route,
// how much of the hybrid in-situ/in-transit path the simulation may
// use when the staging tier falls behind simulation cadence.
//
// Three cooperating pieces implement the graded flow control that
// production in-situ stacks (ElasticBroker, Catalyst-ADIOS2) converge
// on instead of an on/off fallback switch:
//
//   - EWMA: the exponentially weighted moving average core.Pipeline
//     keeps of the task-queue depth — the ladder's pressure signal.
//   - Breaker: a per-analysis-route circuit breaker (closed → open on
//     consecutive failures or a latency-EWMA threshold → half-open
//     probe → closed), gating whether the route may touch the transit
//     tier at all. The poison-route quarantine is the same breaker, one
//     per named tenant's route, fed task dispositions (NewPoisonBreaker).
//   - Ladder: the admission ladder, a hysteretic policy that maps the
//     pressure signals onto graded degradation levels — full hybrid,
//     shaped (reduced payload), in-situ fallback, shed — dropping fast
//     under pressure and climbing back one rung at a time as pressure
//     drains, so recovery never oscillates.
//
// The package is pure policy: it holds no channels, spawns no
// goroutines and touches no transport. core.Pipeline feeds it
// observations and obeys its verdicts; dataspaces.Credits supplies the
// credit-availability signal.
package overload

import (
	"fmt"
	"sync"
	"time"
)

// EWMA is an exponentially weighted moving average over float64
// samples. The zero value (alpha 0) adopts the first sample and then
// never moves; callers should construct it with a real alpha.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// larger alpha weights recent samples more.
func NewEWMA(alpha float64) EWMA { return EWMA{alpha: alpha} }

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	e.v += e.alpha * (x - e.v)
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.v }

// Reset discards the accumulated average.
func (e *EWMA) Reset() { e.v, e.init = 0, false }

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// Closed admits traffic; failures and latency are being watched.
	Closed BreakerState = iota
	// Open rejects traffic until the cooldown elapses.
	Open
	// HalfOpen admits exactly one probe to test whether the route
	// recovered.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// Verdict is the breaker's answer to an admission request.
type Verdict int

const (
	// Admit lets the route submit normally.
	Admit Verdict = iota
	// Probe asks the caller to run one cheap health probe and report
	// the outcome via RecordProbe.
	Probe
	// Reject refuses the transit path for this step.
	Reject
)

// BreakerConfig tunes one route's circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (default 3).
	FailureThreshold int
	// LatencyThreshold opens the breaker when the success-latency EWMA
	// exceeds it (0 disables latency tripping).
	LatencyThreshold time.Duration
	// LatencyAlpha is the smoothing factor of the success-latency EWMA
	// (default 0.5).
	LatencyAlpha float64
	// Cooldown is how long an open breaker waits before allowing a
	// half-open probe (default 50ms).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.LatencyAlpha <= 0 || c.LatencyAlpha > 1 {
		c.LatencyAlpha = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 50 * time.Millisecond
	}
	return c
}

// Breaker is a per-analysis-route circuit breaker. Task outcomes move
// it out of Closed; only probe outcomes (RecordProbe) move it out of
// Open/HalfOpen, so stale in-flight results cannot flip a recovering
// route behind the prober's back.
//
// It has two cooldowns. A route's transit-health breaker waits
// BreakerConfig.Cooldown of wall time and then asks for a probe on every
// step until an outcome arrives. A poison breaker (NewPoisonBreaker)
// counts denials instead of reading a clock, so chaos gates replay
// exactly, and admits one probe at a time, because its probe is a real
// task.
type Breaker struct {
	cfg BreakerConfig
	// Set by NewPoisonBreaker only: probeAfter > 0 makes the cooldown
	// that many denied Allow calls, oneProbe makes a half-open breaker
	// reject until its single outstanding probe is recorded.
	probeAfter int
	oneProbe   bool

	mu       sync.Mutex
	state    BreakerState
	fails    int
	denials  int
	lat      EWMA
	openedAt time.Time

	transitions int64
	opens       int64
	releases    int64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, lat: NewEWMA(cfg.LatencyAlpha)}
}

// NewPoisonBreaker returns a closed breaker for one route's quarantine:
// Strikes failed results open it, ProbeAfter denied Allow calls cool it
// down, and it admits one probe at a time.
func NewPoisonBreaker(cfg QuarantineConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := NewBreaker(BreakerConfig{FailureThreshold: cfg.Strikes})
	b.probeAfter, b.oneProbe = cfg.ProbeAfter, true
	return b
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Transitions returns the total number of state changes.
func (b *Breaker) Transitions() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transitions
}

// Opens returns how many times the breaker entered Open: every trip,
// and every failed probe's re-open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Trips returns how many times the breaker tripped out of Closed (a
// failed probe's re-open continues a trip) and how many times a probe
// closed it again: every trip but a still-open last one ends in one.
func (b *Breaker) Trips() (trips, releases int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	trips = b.releases
	if b.state != Closed {
		trips++
	}
	return trips, b.releases
}

func (b *Breaker) toLocked(s BreakerState, now time.Time) {
	if b.state == s {
		return
	}
	b.state = s
	b.transitions++
	switch s {
	case Open:
		b.opens++
		b.openedAt = now
		b.denials = 0
	case Closed:
		b.releases++
		b.fails = 0
		// A fresh start: the latency EWMA accumulated during the
		// brownout must not instantly re-trip the breaker.
		b.lat.Reset()
	}
}

// Allow answers an admission request at `now`: Admit while closed,
// Reject while open inside the cooldown, Probe once the cooldown has
// elapsed (transitioning to half-open) and on every half-open step
// until a probe outcome arrives — or, for a single-probe breaker,
// Reject until the outstanding probe's outcome arrives.
func (b *Breaker) Allow(now time.Time) Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return Admit
	case Open:
		cooled := now.Sub(b.openedAt) >= b.cfg.Cooldown
		if b.probeAfter > 0 { // count this denial instead of reading the clock
			b.denials++
			cooled = b.denials >= b.probeAfter
		}
		if !cooled {
			return Reject
		}
		b.toLocked(HalfOpen, now)
		return Probe
	default: // HalfOpen
		if b.oneProbe {
			return Reject
		}
		return Probe
	}
}

// RecordSuccess folds one completed task's latency in. It only acts in
// the Closed state: consecutive-failure tracking resets, and the
// latency EWMA may trip the breaker open when it crosses the
// threshold.
func (b *Breaker) RecordSuccess(now time.Time, latency time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		return
	}
	b.fails = 0
	b.lat.Observe(latency.Seconds())
	if b.cfg.LatencyThreshold > 0 && b.lat.Value() > b.cfg.LatencyThreshold.Seconds() {
		b.toLocked(Open, now)
	}
}

// RecordFailure counts one failed task. It only acts in the Closed
// state, opening the breaker at the consecutive-failure threshold.
func (b *Breaker) RecordFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		return
	}
	b.fails++
	if b.fails >= b.cfg.FailureThreshold {
		b.toLocked(Open, now)
	}
}

// RecordProbe reports a half-open probe's outcome: success closes the
// breaker, failure re-opens it and restarts the cooldown.
func (b *Breaker) RecordProbe(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != HalfOpen {
		return
	}
	if ok {
		b.toLocked(Closed, now)
	} else {
		b.toLocked(Open, now)
	}
}

// Level is one rung of the admission ladder, ordered from full service
// to full shedding.
type Level int

const (
	// LevelFull runs the normal hybrid path with the route's configured
	// codec.
	LevelFull Level = iota
	// LevelDelta runs the hybrid path with the full-resolution payload
	// delta-encoded against the previous timestep — exact results,
	// fewer bytes on the wire.
	LevelDelta
	// LevelQuantized runs the hybrid path with the payload's float tail
	// quantized under a bounded error — full resolution, bounded
	// precision loss, for analyses whose payload exposes a float tail.
	LevelQuantized
	// LevelShaped runs the hybrid path with a reduced intermediate
	// payload (coarser downsample) for analyses that support shaping.
	LevelShaped
	// LevelInSitu abandons the transit tier for the step and runs the
	// analysis's in-situ fallback on the simulation ranks.
	LevelInSitu
	// LevelShed skips the analysis entirely for the step, storing only
	// an explicit shed marker.
	LevelShed
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelDelta:
		return "delta"
	case LevelQuantized:
		return "quantized"
	case LevelShaped:
		return "shaped"
	case LevelInSitu:
		return "in-situ"
	case LevelShed:
		return "shed"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Signals is one step's pressure snapshot for a route.
type Signals struct {
	// BreakerOpen reports the route's breaker is not closed.
	BreakerOpen bool
	// CreditsExhausted reports the route could not acquire a transit
	// credit right now.
	CreditsExhausted bool
	// QueueDepth is the task-queue depth EWMA.
	QueueDepth float64
}

// LadderConfig tunes the admission ladder's watermarks and hysteresis.
// The high watermark triggers degradation, the low watermark permits
// recovery; the band between them is the hysteresis dead zone where
// the ladder holds its level. It is also the "overload.ladder" block of
// a pipeline config's tenant, hence the json tags.
type LadderConfig struct {
	// QueueHigh/QueueLow are the queue-depth EWMA watermarks
	// (defaults 3 / 1).
	QueueHigh float64 `json:"queue_high,omitempty"`
	QueueLow  float64 `json:"queue_low,omitempty"`
	// DegradeAfter is the consecutive overloaded observations needed
	// to drop one rung (default 1: degrade immediately).
	DegradeAfter int `json:"degrade_after,omitempty"`
	// RecoverAfter is the consecutive healthy observations needed to
	// climb one rung (default 2: recover cautiously).
	RecoverAfter int `json:"recover_after,omitempty"`
}

func (c LadderConfig) withDefaults() LadderConfig {
	if c.QueueHigh <= 0 {
		c.QueueHigh = 3
	}
	if c.QueueLow <= 0 || c.QueueLow > c.QueueHigh {
		c.QueueLow = 1
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 1
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	return c
}

// Ladder is one route's hysteretic admission policy.
type Ladder struct {
	cfg LadderConfig

	mu    sync.Mutex
	level Level
	bad   int
	good  int
}

// NewLadder returns a ladder at LevelFull.
func NewLadder(cfg LadderConfig) *Ladder {
	return &Ladder{cfg: cfg.withDefaults()}
}

// Observe folds one step's signals into the hysteresis and returns the
// rung to use for the step. Overloaded observations push the ladder
// down one rung per DegradeAfter streak; fully healthy observations
// (breaker closed, credits available, queue at or below the low
// watermark) pull it up one rung per RecoverAfter streak; observations
// inside the hysteresis band hold the level and clear both streaks.
func (l *Ladder) Observe(sig Signals) Level {
	l.mu.Lock()
	defer l.mu.Unlock()
	overloaded := sig.BreakerOpen || sig.CreditsExhausted || sig.QueueDepth > l.cfg.QueueHigh
	healthy := !sig.BreakerOpen && !sig.CreditsExhausted && sig.QueueDepth <= l.cfg.QueueLow
	switch {
	case overloaded:
		l.good = 0
		l.bad++
		if l.bad >= l.cfg.DegradeAfter {
			l.bad = 0
			if l.level < LevelShed {
				l.level++
			}
		}
	case healthy:
		l.bad = 0
		l.good++
		if l.good >= l.cfg.RecoverAfter {
			l.good = 0
			if l.level > LevelFull {
				l.level--
			}
		}
	default:
		// Hysteresis band: hold.
		l.bad, l.good = 0, 0
	}
	return l.level
}

// Config bundles the overload-control plane's tuning for core.Pipeline.
type Config struct {
	// Breaker tunes every route's circuit breaker.
	Breaker BreakerConfig
	// Ladder tunes every route's admission ladder.
	Ladder LadderConfig
	// QueueBound bounds the tenant's DataSpaces task-queue depth:
	// submissions past it fail with ErrQueueFull and the step sheds
	// (0 = the fabric's queue bound, core.SchedulerConfig.QueueBound).
	// With the other tenants' bounds it also sizes the credit supply,
	// the most work the transit tier can hold.
	QueueBound int
	// ProbeLatencyMax fails a half-open probe that answers slower than
	// this even when it succeeds, so a browned-out (slow but alive)
	// staging tier does not close the breaker (default 5ms).
	ProbeLatencyMax time.Duration
}

// WithDefaults fills zero fields with the defaults used by
// core.Pipeline.
func (c Config) WithDefaults() Config {
	if c.ProbeLatencyMax <= 0 {
		c.ProbeLatencyMax = 5 * time.Millisecond
	}
	return c
}
