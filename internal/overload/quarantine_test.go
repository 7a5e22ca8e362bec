package overload

import (
	"math/rand"
	"sync"
	"testing"
)

func TestQuarantineStrikesOpenAndProbeRelease(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 3, ProbeAfter: 2})

	// Healthy route admits forever.
	for i := 0; i < 5; i++ {
		if v := q.Allow("a", "viz"); v != Admit {
			t.Fatalf("healthy allow %d = %v, want admit", i, v)
		}
		q.Settle("a", "viz", true)
	}

	// Two strikes then a success: streak resets, still closed.
	q.Settle("a", "viz", false)
	q.Settle("a", "viz", false)
	q.Settle("a", "viz", true)
	if st := q.State("a", "viz"); st != Closed {
		t.Fatalf("state after reset = %v, want closed", st)
	}

	// Three consecutive strikes open the quarantine.
	for i := 0; i < 3; i++ {
		q.Settle("a", "viz", false)
	}
	if st := q.State("a", "viz"); st != Open {
		t.Fatalf("state after 3 strikes = %v, want open", st)
	}
	if q.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", q.Opens())
	}
	if !q.Barred("a", "viz") {
		t.Fatal("open route not barred")
	}

	// Denials accumulate: first rejected, second converts to a probe.
	if v := q.Allow("a", "viz"); v != Reject {
		t.Fatalf("first open allow = %v, want reject", v)
	}
	if v := q.Allow("a", "viz"); v != Probe {
		t.Fatalf("second open allow = %v, want probe", v)
	}
	// Only one probe in flight at a time.
	if v := q.Allow("a", "viz"); v != Reject {
		t.Fatalf("allow during in-flight probe = %v, want reject", v)
	}

	// Failed probe re-opens; the denial clock restarts.
	q.RecordProbe("a", "viz", false)
	if st := q.State("a", "viz"); st != Open {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if v := q.Allow("a", "viz"); v != Reject {
		t.Fatalf("allow after failed probe = %v, want reject", v)
	}
	if v := q.Allow("a", "viz"); v != Probe {
		t.Fatalf("second allow after failed probe = %v, want probe", v)
	}

	// Successful probe releases the route.
	q.RecordProbe("a", "viz", true)
	if st := q.State("a", "viz"); st != Closed {
		t.Fatalf("state after good probe = %v, want closed", st)
	}
	if q.Releases() != 1 {
		t.Fatalf("releases = %d, want 1", q.Releases())
	}
	if v := q.Allow("a", "viz"); v != Admit {
		t.Fatalf("allow after release = %v, want admit", v)
	}
}

func TestQuarantineRoutesAreIndependent(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 2, ProbeAfter: 3})
	for i := 0; i < 2; i++ {
		q.Settle("noisy", "poison", false)
	}
	if st := q.State("noisy", "poison"); st != Open {
		t.Fatalf("poison route = %v, want open", st)
	}
	// Same analysis under a different tenant, and a different analysis
	// under the same tenant, both stay closed.
	if q.Barred("victim", "poison") || q.Barred("noisy", "viz") {
		t.Fatal("quarantine leaked across routes")
	}
	if v := q.Allow("victim", "poison"); v != Admit {
		t.Fatalf("victim allow = %v, want admit", v)
	}
}

func TestQuarantineStaleResultsIgnoredWhileOpen(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Strikes: 1, ProbeAfter: 2})
	q.Settle("t", "a", false)
	if st := q.State("t", "a"); st != Open {
		t.Fatalf("state = %v, want open", st)
	}
	// In-flight results from before the open must not move the state.
	q.Settle("t", "a", true)
	q.Settle("t", "a", false)
	if st := q.State("t", "a"); st != Open {
		t.Fatalf("state after stale settles = %v, want open", st)
	}
	// A probe outcome reported while not probing is ignored too.
	q.RecordProbe("t", "a", true)
	if st := q.State("t", "a"); st != Open {
		t.Fatalf("state after stray probe record = %v, want open", st)
	}
}

func TestQuarantineConcurrentAccess(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b"}[g%2]
			for i := 0; i < 200; i++ {
				switch q.Allow(tenant, "viz") {
				case Admit:
					q.Settle(tenant, "viz", i%7 != 0)
				case Probe:
					q.RecordProbe(tenant, "viz", i%2 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
}

// The parent commit's quarantine state machine, frozen as the reference
// for TestQuarantineMatchesFrozenReference: Quarantine used to carry
// this private copy of the breaker (QState/QVerdict/qroute) before it
// became a keyed set of Breakers. The enums share Breaker's numbering
// (closed/open/probing = 0/1/2, admit/probe/reject = 0/1/2).
type (
	QState   int
	QVerdict int
)

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

// TestQuarantineMatchesFrozenReference drives the Breaker-backed
// Quarantine and the frozen machine with the same seeded random calls
// over a few routes and requires them to agree after every call:
// verdict, state, Barred, and the Opens/Releases counters (Opens counts
// first trips only; a failed probe's re-open is not one).
func TestQuarantineMatchesFrozenReference(t *testing.T) {
	routes := []qkey{{"a", "viz"}, {"a", "stats"}, {"b", "viz"}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := QuarantineConfig{Strikes: 1 + rng.Intn(4), ProbeAfter: 1 + rng.Intn(5)}
		got := NewQuarantine(cfg)
		want := &refQuarantine{cfg: cfg, routes: make(map[qkey]*qroute)}
		for i := 0; i < 2000; i++ {
			k := routes[rng.Intn(len(routes))]
			// Failures outnumber successes so routes do open.
			ok := rng.Intn(3) == 0
			var op string
			switch rng.Intn(4) {
			case 0, 1:
				op = "Allow"
				if g, w := got.Allow(k.tenant, k.analysis), want.Allow(k.tenant, k.analysis); int(g) != int(w) {
					t.Fatalf("seed %d call %d: Allow(%v) = %d, reference %d", seed, i, k, g, w)
				}
			case 2:
				op = "Settle"
				got.Settle(k.tenant, k.analysis, ok)
				want.Settle(k.tenant, k.analysis, ok)
			case 3:
				op = "RecordProbe"
				got.RecordProbe(k.tenant, k.analysis, ok)
				want.RecordProbe(k.tenant, k.analysis, ok)
			}
			for _, r := range routes {
				g, w := got.State(r.tenant, r.analysis), want.State(r.tenant, r.analysis)
				if int(g) != int(w) || got.Barred(r.tenant, r.analysis) != (w != 0) {
					t.Fatalf("seed %d call %d after %s(%v, %v): route %v state %v barred %v, reference state %d",
						seed, i, op, k, ok, r, g, got.Barred(r.tenant, r.analysis), w)
				}
			}
			if got.Opens() != want.opens || got.Releases() != want.releases {
				t.Fatalf("seed %d call %d after %s: opens/releases %d/%d, reference %d/%d",
					seed, i, op, got.Opens(), got.Releases(), want.opens, want.releases)
			}
		}
		if want.opens == 0 || want.releases == 0 {
			t.Fatalf("seed %d: sequence never opened (%d) or released (%d) a route", seed, want.opens, want.releases)
		}
	}
}
