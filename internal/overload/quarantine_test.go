package overload

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// settle feeds a normally admitted task's disposition into a poison
// breaker the way core's drain does.
func settle(b *Breaker, ok bool) {
	if ok {
		b.RecordSuccess(time.Time{}, 0)
	} else {
		b.RecordFailure(time.Time{})
	}
}

func TestQuarantineStrikesOpenAndProbeRelease(t *testing.T) {
	b := NewPoisonBreaker(QuarantineConfig{Strikes: 3, ProbeAfter: 2})
	var zero time.Time

	// Healthy route admits forever.
	for i := 0; i < 5; i++ {
		if v := b.Allow(zero); v != Admit {
			t.Fatalf("healthy allow %d = %v, want admit", i, v)
		}
		settle(b, true)
	}

	// Two strikes then a success: streak resets, still closed.
	settle(b, false)
	settle(b, false)
	settle(b, true)
	if st := b.State(); st != Closed {
		t.Fatalf("state after reset = %v, want closed", st)
	}

	// Three consecutive strikes open the quarantine.
	for i := 0; i < 3; i++ {
		settle(b, false)
	}
	if st := b.State(); st != Open {
		t.Fatalf("state after 3 strikes = %v, want open", st)
	}
	if trips, _ := b.Trips(); trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}

	// Denials accumulate: first rejected, second converts to a probe.
	if v := b.Allow(zero); v != Reject {
		t.Fatalf("first open allow = %v, want reject", v)
	}
	if v := b.Allow(zero); v != Probe {
		t.Fatalf("second open allow = %v, want probe", v)
	}
	// Only one probe in flight at a time.
	if v := b.Allow(zero); v != Reject {
		t.Fatalf("allow during in-flight probe = %v, want reject", v)
	}

	// Failed probe re-opens; the denial clock restarts.
	b.RecordProbe(zero, false)
	if st := b.State(); st != Open {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if v := b.Allow(zero); v != Reject {
		t.Fatalf("allow after failed probe = %v, want reject", v)
	}
	if v := b.Allow(zero); v != Probe {
		t.Fatalf("second allow after failed probe = %v, want probe", v)
	}

	// Successful probe releases the route.
	b.RecordProbe(zero, true)
	if st := b.State(); st != Closed {
		t.Fatalf("state after good probe = %v, want closed", st)
	}
	if trips, releases := b.Trips(); trips != 1 || releases != 1 {
		t.Fatalf("trips/releases = %d/%d, want 1/1 (a re-open is no new trip)", trips, releases)
	}
	if v := b.Allow(zero); v != Admit {
		t.Fatalf("allow after release = %v, want admit", v)
	}
}

func TestQuarantineStaleResultsIgnoredWhileOpen(t *testing.T) {
	b := NewPoisonBreaker(QuarantineConfig{Strikes: 1, ProbeAfter: 2})
	settle(b, false)
	if st := b.State(); st != Open {
		t.Fatalf("state = %v, want open", st)
	}
	// In-flight results from before the open must not move the state.
	settle(b, true)
	settle(b, false)
	if st := b.State(); st != Open {
		t.Fatalf("state after stale settles = %v, want open", st)
	}
	// A probe outcome reported while not probing is ignored too.
	b.RecordProbe(time.Time{}, true)
	if st := b.State(); st != Open {
		t.Fatalf("state after stray probe record = %v, want open", st)
	}
}

func TestQuarantineConcurrentAccess(t *testing.T) {
	routes := []*Breaker{NewPoisonBreaker(QuarantineConfig{}), NewPoisonBreaker(QuarantineConfig{})}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := routes[g%2]
			for i := 0; i < 200; i++ {
				switch b.Allow(time.Time{}) {
				case Admit:
					settle(b, i%7 != 0)
				case Probe:
					b.RecordProbe(time.Time{}, i%2 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
}

// The parent commit's quarantine state machine, frozen as the reference
// for TestQuarantineMatchesFrozenReference: Quarantine used to carry
// this private copy of the breaker (QState/QVerdict/qroute) before it
// became a keyed set of Breakers, and then one poison Breaker per
// route. The enums share Breaker's numbering (closed/open/probing =
// 0/1/2, admit/probe/reject = 0/1/2).
type (
	QState   int
	QVerdict int
)

// qkey names a route of the frozen reference: a tenant and an analysis.
type qkey struct{ tenant, analysis string }

type qroute struct {
	state    QState
	strikes  int
	denials  int
	inflight bool
}

type refQuarantine struct {
	cfg             QuarantineConfig
	routes          map[qkey]*qroute
	opens, releases int64
}

func (q *refQuarantine) route(tenant, analysis string) *qroute {
	k := qkey{tenant, analysis}
	if q.routes[k] == nil {
		q.routes[k] = &qroute{}
	}
	return q.routes[k]
}

func (q *refQuarantine) Allow(tenant, analysis string) QVerdict {
	r := q.route(tenant, analysis)
	switch r.state {
	case 0: // QClosed
		return 0 // QAdmit
	case 1: // QOpen
		r.denials++
		if r.denials >= q.cfg.ProbeAfter {
			r.state, r.denials, r.inflight = 2, 0, true
			return 1 // QProbe
		}
		return 2 // QReject
	default: // QProbing
		if r.inflight {
			return 2
		}
		r.inflight = true
		return 1
	}
}

func (q *refQuarantine) Settle(tenant, analysis string, ok bool) {
	r := q.route(tenant, analysis)
	if r.state != 0 {
		return
	}
	if ok {
		r.strikes = 0
		return
	}
	r.strikes++
	if r.strikes >= q.cfg.Strikes {
		r.state, r.strikes, r.denials = 1, 0, 0
		q.opens++
	}
}

func (q *refQuarantine) RecordProbe(tenant, analysis string, ok bool) {
	r := q.route(tenant, analysis)
	if r.state != 2 {
		return
	}
	r.inflight = false
	if ok {
		r.state, r.strikes = 0, 0
		q.releases++
	} else {
		r.state, r.denials = 1, 0
	}
}

func (q *refQuarantine) State(tenant, analysis string) QState {
	if r := q.routes[qkey{tenant, analysis}]; r != nil {
		return r.state
	}
	return 0
}

// TestQuarantineMatchesFrozenReference drives one poison breaker per
// route and the frozen machine with the same seeded random calls over a
// few routes and requires them to agree after every call: verdict,
// state, and the opens/releases counters summed over the routes the way
// the scheduler sums them (a route's trips count first trips only; a
// failed probe's re-open is not one).
func TestQuarantineMatchesFrozenReference(t *testing.T) {
	routes := []qkey{{"a", "viz"}, {"a", "stats"}, {"b", "viz"}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := QuarantineConfig{Strikes: 1 + rng.Intn(4), ProbeAfter: 1 + rng.Intn(5)}
		got := make(map[qkey]*Breaker, len(routes))
		for _, k := range routes {
			got[k] = NewPoisonBreaker(cfg)
		}
		want := &refQuarantine{cfg: cfg, routes: make(map[qkey]*qroute)}
		for i := 0; i < 2000; i++ {
			k := routes[rng.Intn(len(routes))]
			// Failures outnumber successes so routes do open.
			ok := rng.Intn(3) == 0
			var op string
			switch rng.Intn(4) {
			case 0, 1:
				op = "Allow"
				if g, w := got[k].Allow(time.Time{}), want.Allow(k.tenant, k.analysis); int(g) != int(w) {
					t.Fatalf("seed %d call %d: Allow(%v) = %d, reference %d", seed, i, k, g, w)
				}
			case 2:
				op = "Settle"
				settle(got[k], ok)
				want.Settle(k.tenant, k.analysis, ok)
			case 3:
				op = "RecordProbe"
				got[k].RecordProbe(time.Time{}, ok)
				want.RecordProbe(k.tenant, k.analysis, ok)
			}
			var opens, releases int64
			for _, r := range routes {
				g, w := got[r].State(), want.State(r.tenant, r.analysis)
				if int(g) != int(w) {
					t.Fatalf("seed %d call %d after %s(%v, %v): route %v state %v, reference state %d",
						seed, i, op, k, ok, r, g, w)
				}
				o, rel := got[r].Trips()
				opens, releases = opens+o, releases+rel
			}
			if opens != want.opens || releases != want.releases {
				t.Fatalf("seed %d call %d after %s: opens/releases %d/%d, reference %d/%d",
					seed, i, op, opens, releases, want.opens, want.releases)
			}
		}
		if want.opens == 0 || want.releases == 0 {
			t.Fatalf("seed %d: sequence never opened (%d) or released (%d) a route", seed, want.opens, want.releases)
		}
	}
}
