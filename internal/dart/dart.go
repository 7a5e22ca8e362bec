// Package dart implements an asynchronous communication and data
// transport substrate modeled on DART (Docan et al., HPDC'08), the
// layer DataSpaces builds on. It provides the services the paper lists
// that the pipeline uses: node registration/unregistration and
// one-sided data transfer (RDMA Get over registered memory regions).
// The transport is pull-only, as in the paper: producers pin reduced
// data and consumers fetch it. (DART's Put, completion events and
// small-message passing are not modeled: the pipeline announces
// data-ready through dataspaces.Put and the rank barrier.)
//
// Transfers move real bytes through a netsim.Network, which selects the
// SMSG/FMA/BTE mechanism by message size and accounts modeled cost, so
// the scheduling layers above observe the same asynchrony and cost
// shape as DART on Gemini.
//
// The transport is resilient: every registered region carries a CRC32
// checksum, every Get verifies the payload after the wire copy,
// and transient fabric faults (drops, timeouts, corruption, partition
// windows — see internal/faults) are absorbed by capped exponential
// backoff with jitter under an optional caller deadline. Errors are
// typed so the layers above can distinguish a dead peer from a slow
// link.
package dart

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/netsim"
	"insitu/internal/obs"
)

// Typed transport errors. Transfer-layer faults from netsim
// (ErrDropped, ErrTimeout, ErrPartitioned) pass through wrapped and
// are matchable with errors.Is.
var (
	// ErrUnregistered is returned when a handle names an endpoint the
	// fabric never registered.
	ErrUnregistered = errors.New("dart: endpoint unregistered")
	// ErrRegionNotFound is returned when a handle names a region that
	// is not (or no longer) pinned on its endpoint.
	ErrRegionNotFound = errors.New("dart: region not registered")
	// ErrForeignHandle is returned when a handle is released on an
	// endpoint that does not own it.
	ErrForeignHandle = errors.New("dart: foreign handle")
	// ErrChecksum is returned when a pulled payload fails
	// CRC32 verification — an in-flight corruption was caught.
	ErrChecksum = errors.New("dart: payload checksum mismatch")
	// ErrDeadline is returned when retries could not complete a
	// transaction before the caller's deadline.
	ErrDeadline = errors.New("dart: deadline exceeded")
	// ErrNoCodecs is returned when a codec operation is needed but no
	// codec registry is attached to the fabric.
	ErrNoCodecs = errors.New("dart: no codec registry attached")
)

// Retriable reports whether an error is a transient transport fault
// worth retrying: wire drops, timeouts, partition windows (which may
// close), and checksum mismatches (a clean retransmit usually
// succeeds). Lifecycle errors — unregistered endpoints, missing
// regions — are permanent.
func Retriable(err error) bool {
	return errors.Is(err, netsim.ErrDropped) ||
		errors.Is(err, netsim.ErrTimeout) ||
		errors.Is(err, netsim.ErrPartitioned) ||
		errors.Is(err, ErrChecksum)
}

// RetryPolicy is the capped-exponential-backoff schedule applied to
// retriable Get failures.
type RetryPolicy struct {
	// MaxAttempts bounds the attempts per operation (including the
	// first). Values < 1 mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further
	// retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep.
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomized away
	// (0 <= Jitter <= 1), decorrelating concurrent retriers.
	Jitter float64
}

// DefaultRetryPolicy mirrors the shape of uGNI-level retransmit
// tuning: a handful of attempts with microsecond-scale backoff, so
// transient faults cost little and persistent ones surface quickly.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
		Jitter:      0.25,
	}
}

// backoff returns the sleep before retry `attempt` (1-based).
func (p RetryPolicy) backoff(attempt int, rng func() float64) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff << uint(attempt-1)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 - p.Jitter*rng()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// MemHandle names a registered memory region on some endpoint. Handles
// are the descriptors DataSpaces stores in its task queue: holding a
// handle is sufficient for any endpoint to pull the data.
type MemHandle struct {
	Endpoint int // owning endpoint id
	Region   int // region id within the endpoint
}

// Stats counts resilience activity: one endpoint's, charged to the
// regions it owns, or the fabric's, summed over its endpoints.
type Stats struct {
	// Retries is the number of retried Get attempts.
	Retries int64
	// ChecksumFailures is the number of corrupted payloads caught by
	// CRC32 verification.
	ChecksumFailures int64
}

// Fabric is the shared transport instance: a set of endpoints attached
// to one simulated network.
type Fabric struct {
	net *netsim.Network

	mu     sync.Mutex
	next   int
	eps    map[int]*Endpoint
	policy RetryPolicy

	jmu sync.Mutex
	jit *rand.Rand

	codecs     atomic.Pointer[codec.Registry]
	rawBytes   atomic.Int64
	encBytes   atomic.Int64
	maxErrBits atomic.Uint64

	obs atomic.Pointer[fabricObs]
}

// fabricObs holds the fabric's observability wiring: the plane plus
// pre-resolved instrument handles, so the per-operation hot path does
// one atomic load and no registry lookups.
type fabricObs struct {
	plane   *obs.Plane
	getOK   *obs.Counter
	getErr  *obs.Counter
	getByte *obs.Counter
	modeled *obs.Histogram
	encSec  [codec.NumIDs]*obs.Histogram
	decSec  [codec.NumIDs]*obs.Histogram
}

// SetPlane attaches the observability plane: every Get records a
// span in the transport category (attrs: region, bytes, attempts,
// modeled duration, error), every retry records an event, and the
// fabric's and each endpoint's counters are published as live metric
// series. Call before
// traffic starts; a nil plane is ignored.
func (f *Fabric) SetPlane(pl *obs.Plane) {
	if pl == nil {
		return
	}
	reg := pl.Registry()
	fo := &fabricObs{
		plane:   pl,
		getOK:   reg.Counter("dart_gets_total", "completed one-sided reads by result", obs.Str("result", "ok")),
		getErr:  reg.Counter("dart_gets_total", "completed one-sided reads by result", obs.Str("result", "error")),
		getByte: reg.Counter("dart_transfer_bytes_total", "payload bytes moved by one-sided transfers", obs.Str("op", "get")),
		modeled: reg.Histogram("dart_transfer_modeled_seconds",
			"modeled transfer duration of successful Get/Put operations", obs.LatencyBuckets),
	}
	for i := 0; i < codec.NumIDs; i++ {
		id := codec.ID(i)
		fo.encSec[i] = reg.Histogram("dart_codec_encode_seconds",
			"transfer-path codec encode latency by codec", obs.LatencyBuckets, obs.Str("codec", id.String()))
		fo.decSec[i] = reg.Histogram("dart_codec_decode_seconds",
			"transfer-path codec decode latency by codec", obs.LatencyBuckets, obs.Str("codec", id.String()))
	}
	reg.CounterFunc("dart_codec_raw_bytes_total", "pre-encode payload bytes offered to the transfer-path codecs",
		func() float64 { return float64(f.rawBytes.Load()) })
	reg.CounterFunc("dart_codec_encoded_bytes_total", "bytes pinned for the wire after codec encode",
		func() float64 { return float64(f.encBytes.Load()) })
	reg.GaugeFunc("dart_codec_compression_ratio", "raw/encoded byte ratio across codec registrations",
		func() float64 {
			enc := f.encBytes.Load()
			if enc == 0 {
				return 1
			}
			return float64(f.rawBytes.Load()) / float64(enc)
		})
	reg.GaugeFunc("dart_codec_max_reconstruction_error", "worst bounded reconstruction error introduced by a lossy encode",
		func() float64 { return math.Float64frombits(f.maxErrBits.Load()) })
	f.obs.Store(fo)
	// Endpoints registered before the plane attached get their
	// owner-attributed series now; later registrations add their own.
	f.mu.Lock()
	eps := make([]*Endpoint, 0, len(f.eps))
	for _, ep := range f.eps {
		eps = append(eps, ep)
	}
	f.mu.Unlock()
	for _, ep := range eps {
		registerEndpointMetrics(reg, ep)
	}
}

// observeGet records one finished Get: a span on the calling
// endpoint's lane plus the operation counters.
func (f *Fabric) observeGet(ep *Endpoint, h MemHandle, start time.Time, modeled time.Duration, attempts, bytes int, err error) {
	fo := f.obs.Load()
	if fo == nil {
		return
	}
	fo.plane.Recorder().Record(0, obs.CatDart, ep.name, "dart.get", start, time.Now(),
		obs.Str("region", fmt.Sprintf("%d/%d", h.Endpoint, h.Region)),
		obs.Int("bytes", bytes),
		obs.Int("attempts", attempts),
		obs.Dur("modeled", modeled),
		obs.Error(err))
	if err != nil {
		fo.getErr.Inc()
		return
	}
	fo.getOK.Inc()
	fo.getByte.Add(int64(bytes))
	fo.modeled.Observe(modeled.Seconds())
}

// observeRetry records one retry as an instantaneous event on the
// calling endpoint's lane.
func (f *Fabric) observeRetry(ep *Endpoint, attempt int, cause error) {
	fo := f.obs.Load()
	if fo == nil {
		return
	}
	fo.plane.Recorder().Event(0, obs.CatDart, ep.name, "dart.retry", time.Now(),
		obs.Str("op", "get"), obs.Int("attempt", attempt), obs.Error(cause))
}

// NewFabric creates a transport fabric over the given network with the
// default retry policy.
func NewFabric(net *netsim.Network) *Fabric {
	return &Fabric{
		net:    net,
		eps:    make(map[int]*Endpoint),
		policy: DefaultRetryPolicy(),
	}
}

// Network returns the underlying simulated network.
func (f *Fabric) Network() *netsim.Network { return f.net }

// SetRetryPolicy replaces the fabric-wide retry policy. Call before
// traffic starts.
func (f *Fabric) SetRetryPolicy(p RetryPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.policy = p
}

// RetryPolicy returns the fabric-wide retry policy.
func (f *Fabric) RetryPolicy() RetryPolicy {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.policy
}

// SetCodecs attaches the codec registry used by RegisterMemEncoded and
// by Get when it pulls a framed region. Producers and consumers of the
// same fabric share one registry (it holds the delta base store). Call
// before traffic starts; a nil registry detaches codecs.
func (f *Fabric) SetCodecs(r *codec.Registry) { f.codecs.Store(r) }

// CodecStats is a snapshot of the fabric's transfer-path codec
// economy.
type CodecStats struct {
	// RawBytes is the total pre-encode payload size offered to
	// RegisterMemEncoded.
	RawBytes int64
	// EncodedBytes is the total size actually pinned for the wire.
	EncodedBytes int64
	// MaxError is the worst bounded reconstruction error any lossy
	// encode introduced (0 when only exact codecs ran).
	MaxError float64
}

// Ratio returns the raw/encoded compression ratio (1 when nothing has
// been encoded).
func (cs CodecStats) Ratio() float64 {
	if cs.EncodedBytes == 0 {
		return 1
	}
	return float64(cs.RawBytes) / float64(cs.EncodedBytes)
}

// CodecStats returns a snapshot of the codec byte economy.
func (f *Fabric) CodecStats() CodecStats {
	return CodecStats{
		RawBytes:     f.rawBytes.Load(),
		EncodedBytes: f.encBytes.Load(),
		MaxError:     math.Float64frombits(f.maxErrBits.Load()),
	}
}

// noteMaxError folds one encode's reconstruction error into the
// fabric-wide maximum.
func (f *Fabric) noteMaxError(e float64) {
	if e <= 0 {
		return
	}
	for {
		old := f.maxErrBits.Load()
		if e <= math.Float64frombits(old) {
			return
		}
		if f.maxErrBits.CompareAndSwap(old, math.Float64bits(e)) {
			return
		}
	}
}

// jitter returns a uniform draw in [0,1) for backoff decorrelation.
// The source is seeded on the first retry, not at NewFabric: most
// fabrics never retry.
func (f *Fabric) jitter() float64 {
	f.jmu.Lock()
	defer f.jmu.Unlock()
	if f.jit == nil {
		f.jit = rand.New(rand.NewSource(1))
	}
	return f.jit.Float64()
}

// region is one pinned memory area plus its integrity checksum. framed
// regions hold a codec frame that Get decodes transparently after CRC
// verification; the checksum always covers the pinned (encoded) bytes.
type region struct {
	data   []byte
	crc    uint32
	framed bool
}

// Endpoint is one attached node: a simulation rank, a DataSpaces
// server, or a staging bucket.
type Endpoint struct {
	f      *Fabric
	id     int
	name   string
	tenant string

	mu      sync.Mutex
	nextReg int
	regions map[int]region

	// The transport's resilience counters, charged to the *region
	// owner* of each transaction: a retry against tenant X's data
	// counts against X's series no matter which bucket issued the pull,
	// so per-tenant dashboards do not alias into one global line.
	retries   atomic.Int64
	crcFails  atomic.Int64
	deadlines atomic.Int64
	bytes     atomic.Int64
}

// Stats returns the endpoint's owner-attributed resilience counters:
// retries, checksum failures, and deadline abandons charged against
// regions this endpoint owns.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		Retries:          ep.retries.Load(),
		ChecksumFailures: ep.crcFails.Load(),
	}
}

// Register attaches a new endpoint to the fabric.
func (f *Fabric) Register(name string) *Endpoint {
	return f.RegisterT(name, "")
}

// RegisterT is Register with a tenant label: the endpoint's
// owner-attributed counters are exported under that tenant so each
// tenant's transport activity is its own metric series.
func (f *Fabric) RegisterT(name, tenant string) *Endpoint {
	f.mu.Lock()
	ep := &Endpoint{
		f:       f,
		id:      f.next,
		name:    name,
		tenant:  tenant,
		regions: make(map[int]region),
	}
	f.next++
	f.eps[ep.id] = ep
	f.mu.Unlock()
	if fo := f.obs.Load(); fo != nil {
		registerEndpointMetrics(fo.plane.Registry(), ep)
	}
	return ep
}

// registerEndpointMetrics publishes one endpoint's owner-attributed
// counters as endpoint+tenant labeled series (scrape-time funcs over
// the endpoint's atomics). The registry is idempotent by name+labels,
// so re-registration after a plane swap is harmless.
func registerEndpointMetrics(reg *obs.Registry, ep *Endpoint) {
	tenant := ep.tenant
	if tenant == "" {
		tenant = "default"
	}
	labels := []obs.Attr{obs.Str("endpoint", ep.name), obs.Str("tenant", tenant)}
	reg.CounterFunc("dart_endpoint_retries_total",
		"retried Get/Put attempts charged to the region-owning endpoint",
		func() float64 { return float64(ep.retries.Load()) }, labels...)
	reg.CounterFunc("dart_endpoint_checksum_failures_total",
		"corrupted payloads caught by CRC32, charged to the region-owning endpoint",
		func() float64 { return float64(ep.crcFails.Load()) }, labels...)
	reg.CounterFunc("dart_endpoint_deadline_exceeded_total",
		"operations abandoned at their deadline, charged to the region-owning endpoint",
		func() float64 { return float64(ep.deadlines.Load()) }, labels...)
	reg.CounterFunc("dart_endpoint_transfer_bytes_total",
		"payload bytes moved out of or into regions the endpoint owns",
		func() float64 { return float64(ep.bytes.Load()) }, labels...)
}

// ownerOf resolves the endpoint owning a handle's region, or nil for an
// unknown endpoint — used by the retry loops to charge failures to the
// region owner.
func (f *Fabric) ownerOf(id int) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eps[id]
}

func (f *Fabric) lookup(id int) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep, ok := f.eps[id]
	if !ok {
		return nil, fmt.Errorf("dart: endpoint %d: %w", id, ErrUnregistered)
	}
	return ep, nil
}

// ID returns the endpoint's fabric-unique id.
func (ep *Endpoint) ID() int { return ep.id }

// RegisterMem pins data for remote one-sided access and returns its
// handle. No private copy is taken: the caller must keep the buffer
// stable until Reclaim, exactly as with RDMA-pinned memory. The
// region's CRC32 is computed here, so mutating the buffer while pinned
// makes subsequent pulls fail checksum verification — by design.
func (ep *Endpoint) RegisterMem(data []byte) MemHandle {
	return ep.registerMem(data, false)
}

func (ep *Endpoint) registerMem(data []byte, framed bool) MemHandle {
	sum := crc32.ChecksumIEEE(data)
	ep.mu.Lock()
	defer ep.mu.Unlock()
	id := ep.nextReg
	ep.nextReg++
	ep.regions[id] = region{data: data, crc: sum, framed: framed}
	return MemHandle{Endpoint: ep.id, Region: id}
}

// EncodedRegion describes one codec-framed registration.
type EncodedRegion struct {
	Handle MemHandle
	// Codec is the codec that actually ran. Identity means the raw
	// payload was pinned unframed (the spec asked for identity, or the
	// codec chose to ship raw).
	Codec codec.ID
}

// RegisterMemEncoded encodes raw under spec (via the fabric's codec
// registry) and pins the result for remote pull; the consumer-side Get
// decodes transparently. key/version name the producer stream for the
// delta base store; floatOff locates the payload's float64 tail for
// the lossy codecs (pass 0 when the payload has no known tail and use
// an exact codec).
//
// Ownership: when the returned Codec is Identity, raw itself is pinned
// and must stay stable until Reclaim, exactly as with RegisterMem.
// Otherwise the pinned bytes are a pooled frame owned by the fabric
// (handed back by Reclaim) and raw may be reused or recycled by
// the caller immediately.
func (ep *Endpoint) RegisterMemEncoded(spec codec.Spec, key string, version int, raw []byte, floatOff int) (EncodedRegion, error) {
	cs := ep.f.codecs.Load()
	if cs == nil {
		return EncodedRegion{}, fmt.Errorf("dart: register encoded on endpoint %d: %w", ep.id, ErrNoCodecs)
	}
	start := time.Now()
	res, err := cs.Encode(spec, key, version, raw, floatOff)
	if err != nil {
		return EncodedRegion{}, fmt.Errorf("dart: encode %s for %s@%d: %w", spec.ID, key, version, err)
	}
	if res.Frame == nil {
		h := ep.registerMem(raw, false)
		ep.f.rawBytes.Add(int64(len(raw)))
		ep.f.encBytes.Add(int64(len(raw)))
		if fo := ep.f.obs.Load(); fo != nil {
			fo.encSec[codec.Identity].Observe(time.Since(start).Seconds())
		}
		return EncodedRegion{Handle: h, Codec: codec.Identity}, nil
	}
	h := ep.registerMem(res.Frame, true)
	ep.f.rawBytes.Add(int64(len(raw)))
	ep.f.encBytes.Add(int64(len(res.Frame)))
	ep.f.noteMaxError(res.MaxError)
	if fo := ep.f.obs.Load(); fo != nil {
		fo.encSec[spec.ID].Observe(time.Since(start).Seconds())
	}
	return EncodedRegion{Handle: h, Codec: spec.ID}, nil
}

// Regions returns the number of currently pinned regions, used by
// leak checks: a well-behaved pipeline releases every intermediate
// after its consumer has pulled it.
func (ep *Endpoint) Regions() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.regions)
}

// Reclaim unpins a region and returns its backing buffer, so the
// owner can recycle it (typically into bufpool) once the consumer has
// pulled the data. After Reclaim the buffer is no longer reachable
// through the fabric; the caller owns it exclusively.
func (ep *Endpoint) Reclaim(h MemHandle) ([]byte, error) {
	if h.Endpoint != ep.id {
		return nil, fmt.Errorf("dart: release of %+v on endpoint %d: %w", h, ep.id, ErrForeignHandle)
	}
	ep.mu.Lock()
	r, ok := ep.regions[h.Region]
	delete(ep.regions, h.Region)
	ep.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dart: region %d on endpoint %d: %w", h.Region, ep.id, ErrRegionNotFound)
	}
	return r.data, nil
}

// region returns the pinned data, checksum, and framing flag for a
// region id.
func (ep *Endpoint) region(id int) ([]byte, uint32, bool, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	r, ok := ep.regions[id]
	if !ok {
		return nil, 0, false, fmt.Errorf("dart: region %d on endpoint %d: %w", id, ep.id, ErrRegionNotFound)
	}
	return r.data, r.crc, r.framed, nil
}

// Get performs a blocking one-sided read of the remote region named by
// h into a pool-recycled buffer. It returns the data and the total
// modeled transfer duration across attempts. Transient fabric faults
// are retried under
// the fabric's retry policy; the pulled payload is CRC32-verified
// against the region's registration checksum, so a corrupted transfer
// is never returned to the caller.
//
// The returned buffer comes from bufpool: once the consumer is done
// with it (and has not retained it), handing it to bufpool.Put makes
// the steady-state transfer path allocation-free. On error no buffer
// is returned and every internally staged buffer has been recycled
// exactly once — callers must not (and cannot) recycle anything.
func (ep *Endpoint) Get(h MemHandle) ([]byte, time.Duration, error) {
	return ep.GetDeadline(h, time.Time{})
}

// GetDeadline is Get under a caller deadline: retries stop, with
// ErrDeadline, once the deadline has passed or would be overshot by
// the next backoff. A zero deadline means no deadline.
func (ep *Endpoint) GetDeadline(h MemHandle, deadline time.Time) ([]byte, time.Duration, error) {
	start := time.Now()
	data, total, attempts, err := ep.getDeadline(h, deadline)
	ep.f.observeGet(ep, h, start, total, attempts, len(data), err)
	return data, total, err
}

// getDeadline is the retry loop behind GetDeadline; it additionally
// reports how many attempts ran, for the observability span.
func (ep *Endpoint) getDeadline(h MemHandle, deadline time.Time) ([]byte, time.Duration, int, error) {
	pol := ep.f.RetryPolicy()
	var total time.Duration
	var lastErr error
	for attempt := 1; ; attempt++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			ep.f.chargeDeadline(h)
			return nil, total, attempt, deadlineErr(h, lastErr)
		}
		data, d, err := ep.getOnce(h)
		total += d
		if err == nil {
			return data, total, attempt, nil
		}
		lastErr = err
		if !Retriable(err) {
			return nil, total, attempt, err
		}
		if attempt >= max(pol.MaxAttempts, 1) {
			return nil, total, attempt, fmt.Errorf("dart: get %+v failed after %d attempts: %w", h, attempt, err)
		}
		ep.f.chargeRetry(h)
		ep.f.observeRetry(ep, attempt, err)
		back := pol.backoff(attempt, ep.f.jitter)
		if !deadline.IsZero() && time.Now().Add(back).After(deadline) {
			ep.f.chargeDeadline(h)
			return nil, total, attempt, deadlineErr(h, lastErr)
		}
		time.Sleep(back)
	}
}

// chargeRetry and chargeDeadline tally a transfer failure against the
// endpoint that owns the region in flight, so per-endpoint/tenant
// series attribute the noise to the tenant whose data was being moved
// rather than to whichever bucket happened to issue the RPC.
func (f *Fabric) chargeRetry(h MemHandle) {
	if o := f.ownerOf(h.Endpoint); o != nil {
		o.retries.Add(1)
	}
}

func (f *Fabric) chargeDeadline(h MemHandle) {
	if o := f.ownerOf(h.Endpoint); o != nil {
		o.deadlines.Add(1)
	}
}

func deadlineErr(h MemHandle, last error) error {
	if last != nil {
		return fmt.Errorf("dart: get %+v: %w (last attempt: %v)", h, ErrDeadline, last)
	}
	return fmt.Errorf("dart: get %+v: %w", h, ErrDeadline)
}

// getOnce is a single pull attempt. Ownership: the destination buffer
// is drawn from bufpool and either returned to the caller (success) or
// recycled here (failure) — never both, and the owner's pinned source
// region is never recycled.
func (ep *Endpoint) getOnce(h MemHandle) ([]byte, time.Duration, error) {
	owner, err := ep.f.lookup(h.Endpoint)
	if err != nil {
		return nil, 0, err
	}
	src, sum, framed, err := owner.region(h.Region)
	if err != nil {
		return nil, 0, err
	}
	data := bufpool.Get(len(src))
	d, terr := ep.f.net.TransferBetween(data, src, h.Endpoint, ep.id)
	if terr != nil {
		bufpool.Put(data)
		return nil, d, fmt.Errorf("dart: get %+v: %w", h, terr)
	}
	if crc32.ChecksumIEEE(data) != sum {
		bufpool.Put(data)
		owner.crcFails.Add(1)
		return nil, d, fmt.Errorf("dart: get %+v: %w", h, ErrChecksum)
	}
	if framed {
		// The CRC above covered the encoded bytes, so the decoder only
		// ever sees verified frames; corruption cannot masquerade as a
		// decode problem. The wire buffer is recycled either way.
		cs := ep.f.codecs.Load()
		if cs == nil {
			bufpool.Put(data)
			return nil, d, fmt.Errorf("dart: get %+v: %w", h, ErrNoCodecs)
		}
		t0 := time.Now()
		raw, id, derr := cs.Decode(data)
		bufpool.Put(data)
		if derr != nil {
			return nil, d, fmt.Errorf("dart: get %+v: %w", h, derr)
		}
		if fo := ep.f.obs.Load(); fo != nil {
			fo.decSec[id].Observe(time.Since(t0).Seconds())
		}
		data = raw
	}
	owner.bytes.Add(int64(len(src)))
	return data, d, nil
}
