// Package faults is the deterministic, seed-driven fault-injection
// layer of the chaos fabric. It decides, per transfer attempt, whether
// the simulated interconnect misbehaves and how: a dropped transfer, a
// stalled transfer that times out, payload corruption (bit flips on the
// wire), a transient bandwidth collapse, or a link partition window
// cutting a set of endpoints off from the rest of the fabric.
//
// Decisions are drawn from a single seeded PRNG under a mutex, so for
// a fixed seed the i-th decision of a run is always the same — the
// fault *sequence* is reproducible even though, under concurrency,
// which transfer receives which decision depends on scheduling.
// Schedules can be refined per path class (SMSG/FMA/BTE) and per
// endpoint, and partition windows are expressed in decision-index
// space so they open and close at reproducible points of the run.
//
// The package is a leaf: netsim consults an Injector at its transfer
// choke point, dart maps the resulting faults to typed errors and
// retries, and the layers above degrade gracefully.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind classifies an injected fault.
type Kind int

const (
	// None means the transfer proceeds unperturbed.
	None Kind = iota
	// Drop loses the transfer: no bytes arrive.
	Drop
	// Timeout stalls the transfer and then fails it.
	Timeout
	// Corrupt delivers the transfer with FlipBits bit positions
	// inverted, to be caught by checksum verification downstream.
	Corrupt
	// Slowdown delivers the transfer at collapsed bandwidth: the
	// modeled duration is multiplied by Factor.
	Slowdown
	// Partition fails the transfer because one of its endpoints is
	// inside an active partition window.
	Partition

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Timeout:
		return "timeout"
	case Corrupt:
		return "corrupt"
	case Slowdown:
		return "slowdown"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rates are per-attempt fault probabilities. They are evaluated in
// order drop, timeout, corrupt, slowdown against one uniform draw, so
// their sum must not exceed 1.
type Rates struct {
	Drop     float64
	Timeout  float64
	Corrupt  float64
	Slowdown float64
}

func (r Rates) zero() bool {
	return r.Drop == 0 && r.Timeout == 0 && r.Corrupt == 0 && r.Slowdown == 0
}

// Window is a link-partition interval in decision-index space: while
// the injector's global decision counter is in [From, Until), any
// transfer with a source or destination endpoint listed in Endpoints
// fails with a Partition fault.
type Window struct {
	From, Until int
	Endpoints   []int
}

func (w Window) covers(idx, from, to int) bool {
	if idx < w.From || idx >= w.Until {
		return false
	}
	for _, e := range w.Endpoints {
		if e == from || e == to {
			return true
		}
	}
	return false
}

// SlowdownWindow schedules a sustained bandwidth collapse — a staging
// brownout — in decision-index space: while the injector's global
// decision counter is in [From, Until), any transfer touching one of
// Endpoints (an empty list matches every transfer) is delivered intact
// but at collapsed bandwidth, its modeled duration multiplied by
// Factor. Unlike the probabilistic Slowdown rate, a window perturbs
// every covered attempt, which is what a slow consumer looks like: not
// occasional hiccups but a sustained drop in drain rate.
type SlowdownWindow struct {
	From, Until int
	Endpoints   []int
	// Factor multiplies the modeled duration (0 means
	// Config.SlowdownFactor).
	Factor float64
}

func (w SlowdownWindow) covers(idx, from, to int) bool {
	if idx < w.From || idx >= w.Until {
		return false
	}
	if len(w.Endpoints) == 0 {
		return true
	}
	for _, e := range w.Endpoints {
		if e == from || e == to {
			return true
		}
	}
	return false
}

// Config describes a fault schedule.
type Config struct {
	// Seed drives the PRNG; the same seed reproduces the same
	// decision sequence for the same sequence of Decide calls.
	Seed int64
	// Default rates apply to every transfer attempt.
	Default Rates
	// PerPath overrides the rates for a path class (int(netsim.Path)).
	PerPath map[int]Rates
	// PerEndpoint overrides the rates for transfers whose source or
	// destination is the given endpoint id. Endpoint overrides take
	// precedence over path overrides.
	PerEndpoint map[int]Rates
	// Partitions are the scheduled link-partition windows.
	Partitions []Window
	// Slowdowns are the scheduled bandwidth-collapse (brownout)
	// windows. Partitions take precedence when both cover an attempt.
	Slowdowns []SlowdownWindow
	// CorruptBits is the number of bit flips per corruption
	// (default 3).
	CorruptBits int
	// SlowdownFactor multiplies the modeled duration of a
	// bandwidth-collapsed transfer (default 10).
	SlowdownFactor float64
}

// timeoutDelay is the modeled stall before a timed-out transfer fails.
const timeoutDelay = 500 * time.Microsecond

// Decision is the injector's verdict for one transfer attempt.
type Decision struct {
	Kind Kind
	// FlipBits are bit offsets into the payload to invert (Corrupt).
	FlipBits []int
	// Factor is the duration multiplier (Slowdown).
	Factor float64
	// Delay is the modeled stall before failure (Timeout).
	Delay time.Duration
}

// Counters is a snapshot of injected-fault counts.
type Counters struct {
	ByKind map[Kind]int64
}

// Injected returns the total number of non-None faults injected.
func (c Counters) Injected() int64 {
	var n int64
	for k, v := range c.ByKind {
		if k != None {
			n += v
		}
	}
	return n
}

// Injector draws fault decisions from a seeded PRNG.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    Config
	n      int
	counts [numKinds]int64
}

// New creates an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.CorruptBits <= 0 {
		cfg.CorruptBits = 3
	}
	if cfg.SlowdownFactor <= 1 {
		cfg.SlowdownFactor = 10
	}
	return &Injector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// rates resolves the schedule for one transfer: endpoint override
// first (source, then destination), then path override, then default.
func (inj *Injector) rates(from, to, path int) Rates {
	if r, ok := inj.cfg.PerEndpoint[from]; ok {
		return r
	}
	if r, ok := inj.cfg.PerEndpoint[to]; ok {
		return r
	}
	if r, ok := inj.cfg.PerPath[path]; ok {
		return r
	}
	return inj.cfg.Default
}

// Decide returns the fault decision for one transfer attempt of `size`
// bytes from endpoint `from` to endpoint `to` over path class `path`.
// Negative endpoint ids mean "unattributed" and only match default and
// per-path schedules.
func (inj *Injector) Decide(from, to, path, size int) Decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	idx := inj.n
	inj.n++
	dec := inj.decideLocked(idx, from, to, path, size)
	inj.counts[dec.Kind]++
	return dec
}

func (inj *Injector) decideLocked(idx, from, to, path, size int) Decision {
	for _, w := range inj.cfg.Partitions {
		if w.covers(idx, from, to) {
			return Decision{Kind: Partition}
		}
	}
	for _, w := range inj.cfg.Slowdowns {
		if w.covers(idx, from, to) {
			f := w.Factor
			if f <= 1 {
				f = inj.cfg.SlowdownFactor
			}
			return Decision{Kind: Slowdown, Factor: f}
		}
	}
	r := inj.rates(from, to, path)
	if r.zero() {
		return Decision{Kind: None}
	}
	u := inj.rng.Float64()
	switch {
	case u < r.Drop:
		return Decision{Kind: Drop}
	case u < r.Drop+r.Timeout:
		return Decision{Kind: Timeout, Delay: timeoutDelay}
	case u < r.Drop+r.Timeout+r.Corrupt:
		if size <= 0 {
			return Decision{Kind: None}
		}
		bits := make([]int, inj.cfg.CorruptBits)
		for i := range bits {
			bits[i] = inj.rng.Intn(size * 8)
		}
		return Decision{Kind: Corrupt, FlipBits: bits}
	case u < r.Drop+r.Timeout+r.Corrupt+r.Slowdown:
		return Decision{Kind: Slowdown, Factor: inj.cfg.SlowdownFactor}
	}
	return Decision{Kind: None}
}

// Counters returns a snapshot of decision counts by kind.
func (inj *Injector) Counters() Counters {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := Counters{ByKind: make(map[Kind]int64)}
	for k := Kind(0); k < numKinds; k++ {
		if inj.counts[k] != 0 {
			out.ByKind[k] = inj.counts[k]
		}
	}
	return out
}
