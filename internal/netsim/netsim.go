// Package netsim models the interconnect between the primary compute
// resource and the staging area. It stands in for the Cray Gemini
// fabric used by DART in the paper: transfers are real in-process byte
// copies, but each transfer is also assigned a modeled duration
// computed from configurable per-path latency and bandwidth, with the
// transfer mechanism selected by message size exactly as DART does on
// Gemini (SMSG for small messages, FMA for medium, BTE RDMA for bulk).
//
// The model serves two purposes: (1) the scheduler and pipeline observe
// realistic asynchrony (optionally enforced by scaled real sleeps), and
// (2) the experiment harness can report modeled data-movement times at
// paper scale alongside measured wall-clock times.
package netsim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"insitu/internal/faults"
)

// Typed transfer faults, surfaced by TransferBetween when a fault
// injector is attached. dart maps these onto its retry policy.
var (
	// ErrDropped means the transfer was lost on the wire; no bytes
	// arrived. Retriable.
	ErrDropped = errors.New("netsim: transfer dropped")
	// ErrTimeout means the transfer stalled past its modeled delay
	// and was aborted. Retriable.
	ErrTimeout = errors.New("netsim: transfer timed out")
	// ErrPartitioned means a link-partition window currently cuts one
	// of the transfer's endpoints off the fabric. Retriable, but only
	// succeeds once the window closes.
	ErrPartitioned = errors.New("netsim: link partitioned")
)

// Path identifies the transfer mechanism chosen for a message.
type Path int

const (
	// SMSG is the GNI short-message path: FMA with OS bypass, lowest
	// latency, used for control messages and tiny payloads.
	SMSG Path = iota
	// FMA is the fast-memory-access path for medium payloads.
	FMA
	// BTE is the block-transfer-engine RDMA path for bulk data,
	// highest bandwidth, higher startup cost.
	BTE
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case SMSG:
		return "SMSG"
	case FMA:
		return "FMA"
	case BTE:
		return "BTE"
	}
	return fmt.Sprintf("Path(%d)", int(p))
}

// Params describes one transfer mechanism: a fixed startup latency and
// a sustained bandwidth.
type Params struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second
}

// Config holds the full network model.
type Config struct {
	// SMSGMax and FMAMax are the inclusive upper size bounds (bytes)
	// for choosing the SMSG and FMA paths; larger messages use BTE.
	SMSGMax int
	FMAMax  int
	// Per-path parameters.
	SMSG Params
	FMA  Params
	BTE  Params
	// TimeScale optionally converts modeled durations into real sleeps
	// so pipelining is exercised in wall-clock time: a transfer whose
	// modeled duration is d sleeps d/TimeScale. Zero disables sleeping.
	TimeScale float64
}

// Gemini returns parameters approximating the Cray XK6 Gemini
// interconnect the paper deployed on: ~1.5 us small-message latency,
// several GB/s sustained RDMA bandwidth.
func Gemini() Config {
	return Config{
		SMSGMax: 1024,
		FMAMax:  64 * 1024,
		SMSG:    Params{Latency: 1500 * time.Nanosecond, Bandwidth: 1.0e9},
		FMA:     Params{Latency: 2500 * time.Nanosecond, Bandwidth: 3.0e9},
		BTE:     Params{Latency: 10 * time.Microsecond, Bandwidth: 6.0e9},
	}
}

// Network is a shared fabric instance. It accounts transferred bytes
// and modeled busy time; many endpoints may use it concurrently.
type Network struct {
	cfg Config

	bytesMoved  atomic.Int64
	transfers   atomic.Int64
	modeledBusy atomic.Int64 // nanoseconds

	inj atomic.Pointer[faults.Injector]
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// SetFaults attaches (or, with nil, detaches) a fault injector. Every
// endpoint-attributed transfer then consults the injector; plain
// TransferInto/Charge traffic stays fault-free so the
// coordination RPC path cannot wedge the scheduler.
func (n *Network) SetFaults(inj *faults.Injector) { n.inj.Store(inj) }

// Faults returns the attached fault injector, or nil.
func (n *Network) Faults() *faults.Injector { return n.inj.Load() }

// Select returns the mechanism DART would choose for a message of the
// given size.
func (n *Network) Select(size int) Path {
	switch {
	case size <= n.cfg.SMSGMax:
		return SMSG
	case size <= n.cfg.FMAMax:
		return FMA
	default:
		return BTE
	}
}

// Cost returns the modeled duration of transferring size bytes along
// with the chosen path.
func (n *Network) Cost(size int) (time.Duration, Path) {
	p := n.Select(size)
	var par Params
	switch p {
	case SMSG:
		par = n.cfg.SMSG
	case FMA:
		par = n.cfg.FMA
	default:
		par = n.cfg.BTE
	}
	d := par.Latency
	if par.Bandwidth > 0 {
		d += time.Duration(float64(size) / par.Bandwidth * float64(time.Second))
	}
	return d, p
}

// Charge accounts one size-byte message on the network without moving
// any bytes: it adds the modeled cost to the counters, optionally
// sleeps the scaled duration, and returns the modeled duration. A
// control RPC, whose payload nothing reads, is charged this way.
func (n *Network) Charge(size int) time.Duration {
	d, _ := n.Cost(size)
	n.account(d, size)
	n.sleepScaled(d)
	return d
}

// TransferInto copies src into the caller-provided dst (whose length
// must be at least len(src)) and charges the copy as a len(src)-byte
// message; see Charge. DART's pooled Get path takes dst from the
// byte-buffer pool, so a transfer allocates nothing.
func (n *Network) TransferInto(dst, src []byte) time.Duration {
	copy(dst, src)
	return n.Charge(len(src))
}

// TransferBetween is the endpoint-attributed, fault-injectable variant
// of TransferInto: it copies src into dst and accounts cost exactly as
// TransferInto does, but when a fault injector is attached the attempt
// may instead be dropped, timed out, partitioned, delivered corrupted
// (bit flips in dst — left for checksum verification upstream), or
// delivered at collapsed bandwidth. The returned duration is the
// modeled time the attempt occupied the fabric, whether or not it
// succeeded.
func (n *Network) TransferBetween(dst, src []byte, from, to int) (time.Duration, error) {
	inj := n.inj.Load()
	if inj == nil {
		return n.TransferInto(dst, src), nil
	}
	d, p := n.Cost(len(src))
	dec := inj.Decide(from, to, int(p), len(src))
	switch dec.Kind {
	case faults.Drop:
		// The attempt occupied the wire for its full modeled duration
		// before the loss was noticed.
		n.sleepScaled(d)
		return d, ErrDropped
	case faults.Timeout:
		n.sleepScaled(dec.Delay)
		return dec.Delay, ErrTimeout
	case faults.Partition:
		// Fail fast at SMSG latency: the uGNI layer reports an
		// unreachable peer without moving payload bytes.
		return n.cfg.SMSG.Latency, ErrPartitioned
	case faults.Corrupt:
		copy(dst, src)
		for _, b := range dec.FlipBits {
			dst[b/8] ^= 1 << (b % 8)
		}
		n.account(d, len(src))
		n.sleepScaled(d)
		return d, nil
	case faults.Slowdown:
		copy(dst, src)
		d = time.Duration(float64(d) * dec.Factor)
		n.account(d, len(src))
		n.sleepScaled(d)
		return d, nil
	}
	copy(dst, src)
	n.account(d, len(src))
	n.sleepScaled(d)
	return d, nil
}

// account records a completed transfer's cost against the counters.
func (n *Network) account(d time.Duration, size int) {
	n.bytesMoved.Add(int64(size))
	n.transfers.Add(1)
	n.modeledBusy.Add(int64(d))
}

// sleepScaled optionally converts a modeled duration into a real sleep.
func (n *Network) sleepScaled(d time.Duration) {
	if n.cfg.TimeScale <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) / n.cfg.TimeScale))
}

// Stats is a snapshot of fabric counters.
type Stats struct {
	BytesMoved  int64
	Transfers   int64
	ModeledBusy time.Duration
	// Faulted counts transfer attempts the attached injector perturbed
	// (dropped, timed out, partitioned, corrupted, or slowed); 0 with
	// no injector.
	Faulted int64
}

// Stats returns a snapshot of the accounting counters.
func (n *Network) Stats() Stats {
	st := Stats{
		BytesMoved:  n.bytesMoved.Load(),
		Transfers:   n.transfers.Load(),
		ModeledBusy: time.Duration(n.modeledBusy.Load()),
	}
	if inj := n.inj.Load(); inj != nil {
		st.Faulted = inj.Counters().Injected()
	}
	return st
}
