package overload

import (
	"testing"
	"time"
)

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("empty EWMA = %v, want 0", e.Value())
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first sample must be adopted, got %v", e.Value())
	}
	e.Observe(0)
	if e.Value() != 5 {
		t.Fatalf("alpha 0.5 after 10,0 = %v, want 5", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Observe(42)
	}
	if v := e.Value(); v < 41.9 || v > 42.1 {
		t.Fatalf("EWMA did not converge: %v", v)
	}
	e.Reset()
	e.Observe(7)
	if e.Value() != 7 {
		t.Fatalf("reset EWMA must re-adopt first sample, got %v", e.Value())
	}
}

func TestBreakerConsecutiveFailuresOpen(t *testing.T) {
	now := time.Now()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute})
	if b.State() != Closed || b.Allow(now) != Admit {
		t.Fatal("new breaker must be closed and admitting")
	}
	b.RecordFailure(now)
	b.RecordSuccess(now, time.Millisecond) // success resets the streak
	b.RecordFailure(now)
	b.RecordFailure(now)
	if b.State() != Closed {
		t.Fatal("streak was reset; breaker must still be closed")
	}
	b.RecordFailure(now)
	if b.State() != Open {
		t.Fatalf("3 consecutive failures must open, state %v", b.State())
	}
	if b.Allow(now) != Reject {
		t.Fatal("open breaker inside cooldown must reject")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerLatencyEWMATrips(t *testing.T) {
	now := time.Now()
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 100,
		LatencyThreshold: 10 * time.Millisecond,
		LatencyAlpha:     0.5,
	})
	b.RecordSuccess(now, 2*time.Millisecond)
	if b.State() != Closed {
		t.Fatal("fast successes must not trip the breaker")
	}
	for i := 0; i < 5 && b.State() == Closed; i++ {
		b.RecordSuccess(now, 80*time.Millisecond)
	}
	if b.State() != Open {
		t.Fatal("sustained slow successes must trip the latency EWMA open")
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	now := time.Now()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 10 * time.Millisecond})
	b.RecordFailure(now)
	if b.State() != Open {
		t.Fatal("threshold 1 must open on first failure")
	}
	if v := b.Allow(now.Add(time.Millisecond)); v != Reject {
		t.Fatalf("inside cooldown: %v, want Reject", v)
	}
	if v := b.Allow(now.Add(20 * time.Millisecond)); v != Probe {
		t.Fatalf("after cooldown: %v, want Probe", v)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want HalfOpen", b.State())
	}
	// Stale task outcomes must not move a half-open breaker.
	b.RecordFailure(now.Add(21 * time.Millisecond))
	b.RecordSuccess(now.Add(21*time.Millisecond), time.Millisecond)
	if b.State() != HalfOpen {
		t.Fatal("task outcomes moved a half-open breaker")
	}
	// A failed probe re-opens and restarts the cooldown.
	b.RecordProbe(now.Add(22*time.Millisecond), false)
	if b.State() != Open {
		t.Fatal("failed probe must re-open")
	}
	if v := b.Allow(now.Add(25 * time.Millisecond)); v != Reject {
		t.Fatalf("cooldown must restart after failed probe, got %v", v)
	}
	// A successful probe closes.
	if v := b.Allow(now.Add(40 * time.Millisecond)); v != Probe {
		t.Fatalf("want Probe after restarted cooldown, got %v", v)
	}
	b.RecordProbe(now.Add(41*time.Millisecond), true)
	if b.State() != Closed {
		t.Fatal("successful probe must close")
	}
	// closed->open->half-open->open->half-open->closed = 5 transitions.
	if b.Transitions() != 5 {
		t.Fatalf("transitions = %d, want 5", b.Transitions())
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestLadderDegradesAndRecoversWithHysteresis(t *testing.T) {
	l := NewLadder(LadderConfig{
		QueueHigh: 4, QueueLow: 1,
		DegradeAfter: 1, RecoverAfter: 2,
	})
	if l.level != LevelFull {
		t.Fatal("ladder must start at full")
	}
	over := Signals{QueueDepth: 10}
	// One rung per overloaded observation: full -> delta -> quantized
	// -> shaped -> in-situ -> shed.
	walk := []Level{LevelDelta, LevelQuantized, LevelShaped, LevelInSitu, LevelShed}
	for i, want := range walk {
		if got := l.Observe(over); got != want {
			t.Fatalf("overload %d: %v, want %v", i+1, got, want)
		}
	}
	if got := l.Observe(over); got != LevelShed {
		t.Fatalf("ladder must saturate at shed, got %v", got)
	}
	// Inside the hysteresis band: hold level, clear streaks.
	mid := Signals{QueueDepth: 2}
	if got := l.Observe(mid); got != LevelShed {
		t.Fatalf("hysteresis band must hold, got %v", got)
	}
	// Recovery takes RecoverAfter healthy observations per rung.
	ok := Signals{QueueDepth: 0}
	if got := l.Observe(ok); got != LevelShed {
		t.Fatalf("one healthy step must not climb yet, got %v", got)
	}
	if got := l.Observe(ok); got != LevelInSitu {
		t.Fatalf("second healthy step must climb one rung, got %v", got)
	}
	// The band resets the good streak too.
	l.Observe(ok)
	if got := l.Observe(mid); got != LevelInSitu {
		t.Fatalf("band must hold during recovery, got %v", got)
	}
	l.Observe(ok)
	if got := l.Observe(ok); got != LevelShaped {
		t.Fatalf("recovery must resume rung by rung, got %v", got)
	}
	for _, want := range []Level{LevelQuantized, LevelDelta, LevelFull} {
		l.Observe(ok)
		if got := l.Observe(ok); got != want {
			t.Fatalf("recovery must pass through %v, got %v", want, got)
		}
	}
}

func TestLadderBreakerAndCreditSignals(t *testing.T) {
	l := NewLadder(LadderConfig{QueueHigh: 100, QueueLow: 50, DegradeAfter: 1, RecoverAfter: 1})
	if got := l.Observe(Signals{BreakerOpen: true}); got != LevelDelta {
		t.Fatalf("breaker-open must degrade, got %v", got)
	}
	if got := l.Observe(Signals{CreditsExhausted: true}); got != LevelQuantized {
		t.Fatalf("credit exhaustion must degrade, got %v", got)
	}
	if got := l.Observe(Signals{QueueDepth: 10}); got != LevelDelta {
		t.Fatalf("healthy signals must recover, got %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.QueueBound != 8 || c.ProbeLatencyMax <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
