package core

import (
	"fmt"
	"sync"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/comm"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/staging"
)

// fabric is the transit substrate of the paper's Fig. 5 that every
// tenant of one run shares: the simulated interconnect, the DART
// transport, the DataSpaces service, the staging area, the codec
// registry, the simulation-rank endpoint table and the observability
// plane. A standalone Pipeline owns a fabric with itself as the only
// tenant; a Scheduler owns one with a tenant per AddTenant. Everything
// downstream of submission exists once, here.
type fabric struct {
	net    *netsim.Network
	dart   *dart.Fabric
	ds     *dataspaces.Service
	area   *staging.Area
	codecs *codec.Registry

	// publishPolicy registers the owning scheduler's metric families
	// (nil for a standalone pipeline).
	publishPolicy func(*obs.Registry)

	mu      sync.Mutex
	tenants []*Pipeline
	eps     map[int]*dart.Endpoint // endpoint id -> rank endpoint, every tenant (for release)
	ran     bool

	// Observability plane (nil until enableObs). Written once, before
	// run; the step loops and the drain read it unlocked.
	plane *obs.Plane
}

// newFabric validates the sizing and builds the shared subsystems.
func newFabric(netCfg netsim.Config, servers, buckets, maxTaskAttempts int) (*fabric, error) {
	if servers < 1 {
		return nil, fmt.Errorf("core: need at least one DataSpaces server")
	}
	if buckets < 1 {
		return nil, fmt.Errorf("core: need at least one staging bucket")
	}
	net := netsim.New(netCfg)
	d := dart.NewFabric(net)
	ds, err := dataspaces.New(d, servers)
	if err != nil {
		return nil, err
	}
	f := &fabric{net: net, dart: d, ds: ds, codecs: codec.NewRegistry(), eps: make(map[int]*dart.Endpoint)}
	// The registry is attached unconditionally: with no Codecs config
	// every registration resolves to the identity spec, which pins raw
	// bytes exactly as RegisterMem did.
	ds.SetCodecs(f.codecs)
	// Pooled buffers are safe here because every in-transit handler in
	// core decodes its payloads into private structures (Unmarshal*)
	// and retains no input slice past its return.
	opts := []staging.Option{staging.WithRelease(f.releaseHandle), staging.WithPooledBuffers()}
	if maxTaskAttempts > 0 {
		opts = append(opts, staging.WithMaxAttempts(maxTaskAttempts))
	}
	if f.area, err = staging.New(d, ds, buckets, opts...); err != nil {
		return nil, err
	}
	return f, nil
}

// attach adds a scheduler tenant to the fabric and, when the plane is
// already up, publishes its families.
func (f *fabric) attach(p *Pipeline) error {
	f.mu.Lock()
	if f.ran {
		f.mu.Unlock()
		return fmt.Errorf("core: scheduler already ran; tenants must be added before Run")
	}
	for _, q := range f.tenants {
		if q.tenant == p.tenant {
			f.mu.Unlock()
			return fmt.Errorf("core: tenant %q already added", p.tenant)
		}
	}
	f.tenants = append(f.tenants, p)
	pl := f.plane
	f.mu.Unlock()
	if pl != nil {
		p.publish(pl.Registry())
	}
	return nil
}

// tenant returns the attached pipeline with that tenant name, or nil.
func (f *fabric) tenant(name string) *Pipeline {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.tenants {
		if p.tenant == name {
			return p
		}
	}
	return nil
}

// registerRanks gives a tenant one endpoint per simulation rank —
// "sim-<rank>", or "<tenant>/sim-<rank>" tagged with the tenant so
// transfer noise is attributed to it — and enters them in the release
// table. A scheduler calls it from AddTenant, so fault windows can be
// scoped to the endpoints before Run; run covers whoever is left, which
// keeps a standalone pipeline's construction cheap. Idempotent.
func (f *fabric) registerRanks(p *Pipeline) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.rankEps != nil {
		return
	}
	prefix := ""
	if p.tenant != "" {
		prefix = p.tenant + "/"
	}
	eps := make([]*dart.Endpoint, p.sim.Ranks())
	for r := range eps {
		eps[r] = f.dart.RegisterT(fmt.Sprintf("%ssim-%d", prefix, r), p.tenant)
		f.eps[eps[r].ID()] = eps[r]
	}
	p.mu.Lock()
	p.rankEps = eps
	p.mu.Unlock()
}

// releaseHandle frees a pinned intermediate region once the staging
// bucket has pulled it and recycles the producer's marshal buffer, so
// steady-state timesteps reuse the same intermediate-data buffers
// instead of allocating fresh ones. Safe because in-situ stages build
// each payload from scratch and never touch it after RegisterMem.
func (f *fabric) releaseHandle(d dataspaces.Descriptor) {
	f.mu.Lock()
	ep := f.eps[d.Handle.Endpoint]
	f.mu.Unlock()
	if ep != nil {
		if buf, err := ep.Reclaim(d.Handle); err == nil {
			bufpool.Put(buf)
		}
	}
}

// enableObs attaches the one observability plane: a span recorder
// shared by the timeline, the DART transport, the task lifecycle and
// every tenant's admission plane, plus a metrics registry holding
// the fabric's families once and each tenant's families under its
// label. Idempotent; call before run.
func (f *fabric) enableObs() *obs.Plane {
	f.mu.Lock()
	if f.plane != nil {
		defer f.mu.Unlock()
		return f.plane
	}
	pl := obs.NewPlane()
	f.plane = pl
	tenants := append([]*Pipeline(nil), f.tenants...)
	f.mu.Unlock()

	// Registration happens outside f.mu: the sampled functions take
	// tenant locks, so holding it here would invert the lock order
	// against a concurrent scrape.
	f.dart.SetPlane(pl)
	f.ds.SetPlane(pl)
	f.area.SetPlane(pl)
	reg := pl.Registry()
	reg.CounterFunc("net_transfers_total", "transfers accounted on the simulated interconnect",
		func() float64 { return float64(f.net.Stats().Transfers) })
	reg.CounterFunc("net_bytes_moved_total", "bytes moved over the simulated interconnect",
		func() float64 { return float64(f.net.Stats().BytesMoved) })
	reg.CounterFunc("net_faults_total", "transfer attempts perturbed by the fault injector",
		func() float64 { return float64(f.net.Stats().Faulted) })
	if f.publishPolicy != nil {
		f.publishPolicy(reg)
	}
	for _, p := range tenants {
		p.publish(reg)
	}
	return pl
}

// timeline records one Gantt span (obs.CatTimeline; start == end for a
// mark) named by format and args. Without a plane it does nothing, so
// call sites need no guard and the name is never formatted.
func (f *fabric) timeline(lane string, start, end time.Time, format string, args ...any) {
	if f.plane != nil {
		f.plane.Recorder().Record(0, obs.CatTimeline, lane, fmt.Sprintf(format, args...), start, end)
	}
}

// mark records an instantaneous timeline event — a degradation, a
// dead-letter, a breaker or ladder move.
func (f *fabric) mark(lane string, at time.Time, format string, args ...any) {
	f.timeline(lane, at, at, format, args...)
}

// begin claims the fabric's single run and returns the tenants it will
// execute; ok is false when the fabric already ran.
func (f *fabric) begin() (tenants []*Pipeline, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ran {
		return nil, false
	}
	f.ran = true
	return append([]*Pipeline(nil), f.tenants...), true
}

// run is the one run engine (the loop of Fig. 5): register the rank
// endpoints and in-transit handlers of every tenant, start the staging
// buckets, drain final results on a single goroutine that dispatches by
// tenant, run every tenant's SPMD simulation + in-situ loop
// concurrently, close the task queue once every tenant has finished
// stepping and drained, and wait for the tier to empty. afterResult
// (may be nil) runs on the drain goroutine after each result — the
// scheduler's autoscaler hook, and the only mutator of the bucket pool.
func (f *fabric) run(tenants []*Pipeline, steps int, afterResult func()) {
	byTenant := make(map[string]*Pipeline, len(tenants))
	for _, p := range tenants {
		byTenant[p.tenant] = p
		f.registerRanks(p)
		p.installHandlers()
	}
	// Close is idempotent, so racing calls are harmless.
	closeWhenDrained := func() {
		for _, p := range tenants {
			if !p.drained() {
				return
			}
		}
		f.ds.Close()
	}
	f.area.Start()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range f.area.Results() {
			if p := byTenant[res.Task.Tenant]; p != nil {
				p.handleResult(res)
			}
			closeWhenDrained()
			if afterResult != nil {
				afterResult()
			}
		}
	}()

	var wg sync.WaitGroup
	for _, p := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm.Run(p.sim.Ranks(), func(r *comm.Rank) {
				if err := p.rankLoop(r, steps); err != nil {
					p.recordErr(err)
				}
			})
			p.mu.Lock()
			p.simDone = true
			p.mu.Unlock()
			closeWhenDrained()
		}()
	}
	wg.Wait()
	f.area.Wait()
	<-done
}
