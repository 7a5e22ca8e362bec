package core

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/overload"
	"insitu/internal/recovery"
	"insitu/internal/sim"
	"insitu/internal/staging"
)

// SchedulerConfig sizes the secondary resource of the paper's Table I
// (simulation/in-situ cores come from each tenant's sim decomposition):
// one DataSpaces service, one bucket pool and one interconnect, time-
// multiplexed across whoever produces data.
type SchedulerConfig struct {
	DSServers int // DataSpaces service shards, shared by all tenants
	Buckets   int // initial in-transit staging buckets
	// MaxBuckets caps the pool when the autoscaler grows it
	// (0 = Buckets: a fixed pool).
	MaxBuckets int
	Net        netsim.Config
	// TenantReserve is each tenant's guaranteed credit floor — the
	// bulkhead. Reservations degrade to one shared pool when the floors
	// would consume the whole account.
	TenantReserve int
	// QueueBound bounds each tenant's task queue independently
	// (0 = unbounded).
	QueueBound int
	// Autoscale, when non-nil, lets the scheduler grow and shrink the
	// bucket pool between Buckets-ish floors and MaxBuckets from live
	// queue/ladder pressure. Nil keeps the pool fixed.
	Autoscale *overload.AutoscaleConfig
	// Quarantine tunes the poison-route quarantine (zero value =
	// defaults: 3 strikes, probe after 4 denials).
	Quarantine overload.QuarantineConfig
}

// TenantConfig is everything one tenant brings to the fabric: its
// simulation, admission plane, codecs, journal and frame sink.
// Everything downstream of submission is shared.
type TenantConfig struct {
	Sim sim.Config
	// Overload tunes the tenant's admission plane: credit-based
	// admission, a per-route circuit breaker, and the admission ladder
	// (full → delta → quantized → shaped → in-situ → shed). Nil means
	// defaults for a named tenant; the unnamed tenant then has no plane
	// and submits every due step. Its QueueBound is read for the
	// unnamed tenant only (see AddTenant).
	Overload *overload.Config
	// Codecs selects the default transfer-path codec per hybrid route:
	// the key is an analysis name, with "*" as the fallback for routes
	// not named. Unlisted routes (and a nil map) use the identity
	// codec, which registers raw payloads byte-for-byte. The admission
	// ladder's delta/quantized rungs override the configured spec for
	// the steps they govern.
	Codecs map[string]codec.Spec
	// StepBudget is every submitted task's data-movement deadline,
	// counted from the step's submission: a pull that misses it fails
	// the attempt, and a task out of attempts dead-letters into a
	// Degraded step. Zero sets no deadline.
	StepBudget time.Duration
	// Recovery, when non-nil, enables durable run recovery: a
	// write-ahead step journal, periodic bp checkpoints, and a Resume
	// path that continues a crashed run bit-identically from its last
	// committed step. The journal assumes it owns the task queue, so
	// Run refuses it when the tenant has siblings.
	Recovery *RecoveryConfig
	// Store, when non-nil, files every rendered frame a FrameAnalysis
	// produces into the Cinema-style image database as the run goes.
	// Nil means the digest-only sink. Either way Report.Results holds
	// FrameRefs instead of raw framebuffers, and the pooled image
	// buffers are recycled once their pixels are encoded.
	Store FrameSink
}

// Config declares a standalone pipeline: a fabric and the one unnamed
// tenant that has it to itself.
type Config struct {
	SchedulerConfig
	TenantConfig
}

// DefaultConfig mirrors the paper's resource ratios at laptop scale.
func DefaultConfig(simCfg sim.Config) Config {
	return Config{
		SchedulerConfig: SchedulerConfig{DSServers: 4, Buckets: 4, Net: netsim.Gemini()},
		TenantConfig:    TenantConfig{Sim: simCfg},
	}
}

// NewPipeline builds a scheduler whose lone tenant is the returned
// pipeline; its Run and Resume are the scheduler's.
func NewPipeline(cfg Config) (*Pipeline, error) {
	s, err := NewScheduler(cfg.SchedulerConfig)
	if err != nil {
		return nil, err
	}
	return s.AddTenant("", cfg.TenantConfig)
}

// Scheduler owns the transit substrate of the paper's Fig. 5 — the
// simulated interconnect, the DART transport, the DataSpaces service,
// the staging area, the codec registry, the rank-endpoint table and the
// observability plane — and the policy over it: credit bulkheads over
// one account, round-robin dequeue across tenant queues, the
// poison-route quarantine, and an optional bucket-pool autoscaler.
// Everything downstream of submission exists once, here, and it is the
// only thing that runs: a standalone pipeline is a scheduler with one
// unnamed tenant. Build with NewScheduler, add tenants with AddTenant,
// register analyses on the returned pipelines, then Run once.
type Scheduler struct {
	cfg SchedulerConfig

	net    *netsim.Network
	dart   *dart.Fabric
	ds     *dataspaces.Service
	area   *staging.Area
	codecs *codec.Registry

	scaler *overload.Autoscaler

	mu      sync.Mutex
	tenants []*Pipeline
	eps     map[int]*dart.Endpoint // endpoint id -> rank endpoint, every tenant (for release)
	ran     bool
	// credits is the transit credit account: nil until start, and for a
	// run without any admission plane.
	credits *dataspaces.Credits

	// Observability plane (nil until EnableObs). attachMu (taken before
	// mu) orders its one write before run's claim, so the step loops and
	// the drain read it unlocked.
	plane    *obs.Plane
	attachMu sync.Mutex
}

// NewScheduler validates the sizing and builds the shared subsystems.
// Tenants are added afterwards with AddTenant.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.MaxBuckets != 0 && cfg.MaxBuckets < cfg.Buckets {
		return nil, fmt.Errorf("core: MaxBuckets %d below initial Buckets %d", cfg.MaxBuckets, cfg.Buckets)
	}
	net := netsim.New(cfg.Net)
	d := dart.NewFabric(net)
	ds, err := dataspaces.New(d, cfg.DSServers)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg: cfg, net: net, dart: d, ds: ds, codecs: codec.NewRegistry(),
		eps: make(map[int]*dart.Endpoint),
	}
	// The registry is attached unconditionally: with no Codecs config
	// every registration resolves to the identity spec, which pins raw
	// bytes exactly as RegisterMem did.
	d.SetCodecs(s.codecs)
	// The buckets recycle pulled payloads once a handler returns; every
	// in-transit handler in core decodes its payloads into private
	// structures (Unmarshal*) and retains no input slice past its return.
	s.area, err = staging.New(d, ds, cfg.Buckets, s.releaseHandle)
	if err != nil {
		return nil, err
	}
	if cfg.Autoscale != nil {
		asc := *cfg.Autoscale
		if asc.Max == 0 {
			asc.Max = max(cfg.MaxBuckets, cfg.Buckets)
		}
		s.scaler = overload.NewAutoscaler(asc)
	}
	return s, nil
}

// AddTenant builds a tenant pipeline over the fabric; it is the one
// place a Pipeline is made. Register analyses on it before Run.
//
// The name carries the one rule of tenancy. A named tenant has
// shared-fabric semantics: its endpoints, codec streams and metric
// families are qualified by the name, all its routes draw on one credit
// account (the bulkhead) sized by SchedulerConfig, each hybrid route
// gets a poison breaker (its quarantine, built by Register), and it
// always has an admission plane. The unnamed tenant must be alone: bare
// names, one credit account per route sized by its own overload block,
// and no quarantine — a poison route there burns nobody else's buckets.
func (s *Scheduler) AddTenant(name string, cfg TenantConfig) (*Pipeline, error) {
	sm, err := sim.New(cfg.Sim)
	if err != nil {
		return nil, err
	}
	cfg.Store = cmp.Or(cfg.Store, FrameSink(digestSink{}))
	p := &Pipeline{
		cfg:    cfg,
		sched:  s,
		sim:    sm,
		col:    metrics.NewCollector(),
		tenant: name,
		byName: make(map[string]*route),
	}
	ov := cfg.Overload
	if name != "" {
		p.prefix = name + "/"
		p.labels = []obs.Attr{obs.Str("tenant", name)}
		if ov == nil {
			ov = &overload.Config{}
		}
	}
	if ov != nil {
		d := ov.WithDefaults()
		p.ov = &d
		p.queue = overload.NewEWMA(0.5)
	}
	if rc := cfg.Recovery; rc != nil {
		if rc.Dir == "" {
			return nil, fmt.Errorf("core: Recovery.Dir must be set")
		}
		j, err := recovery.Open(rc.Dir)
		if err != nil {
			return nil, err
		}
		p.rec = &recState{j: j, every: cmp.Or(max(rc.Every, 0), 5), kill: rc.Kill, nextCommit: 1}
	}

	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: scheduler already ran; tenants must be added before Run")
	}
	for _, q := range s.tenants {
		if q.tenant == name || q.tenant == "" || name == "" {
			s.mu.Unlock()
			return nil, fmt.Errorf("core: tenant %q cannot join tenant %q: tenants sharing a fabric need distinct, non-empty names", name, q.tenant)
		}
	}
	s.tenants = append(s.tenants, p)
	pl := s.plane
	s.mu.Unlock()
	if pl != nil {
		p.publish(pl.Registry())
	}
	return p, nil
}

// Tenant returns a tenant's pipeline, or nil if the name is unknown.
func (s *Scheduler) Tenant(name string) *Pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.tenants {
		if p.tenant == name {
			return p
		}
	}
	return nil
}

// TenantEndpoints returns a tenant's rank endpoints in rank order — the
// handles fault injection is scoped to.
func (s *Scheduler) TenantEndpoints(name string) []*dart.Endpoint {
	p := s.Tenant(name)
	if p == nil {
		return nil
	}
	s.registerRanks()
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*dart.Endpoint(nil), p.rankEps...)
}

// registerRanks gives every tenant that has none yet one endpoint per
// simulation rank — "<prefix>sim-<rank>", tagged with the tenant so
// transfer noise is attributed to it — and enters them in the release
// table. Endpoints are registered on first use, TenantEndpoints or
// run, in AddTenant order whichever tenant was asked for, so endpoint
// ids do not depend on who asked and construction stays cheap.
func (s *Scheduler) registerRanks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.tenants {
		if p.rankEps != nil {
			continue
		}
		eps := make([]*dart.Endpoint, p.sim.Ranks())
		for r := range eps {
			eps[r] = s.dart.RegisterT(fmt.Sprintf("%ssim-%d", p.prefix, r), p.tenant)
			s.eps[eps[r].ID()] = eps[r]
		}
		p.mu.Lock()
		p.rankEps = eps
		p.mu.Unlock()
	}
}

// releaseHandle frees a pinned intermediate region once the staging
// bucket has pulled it and recycles the producer's marshal buffer, so
// steady-state timesteps reuse the same intermediate-data buffers
// instead of allocating fresh ones. Safe because in-situ stages build
// each payload from scratch and never touch it after RegisterMem.
func (s *Scheduler) releaseHandle(d dataspaces.Descriptor) {
	s.mu.Lock()
	ep := s.eps[d.Handle.Endpoint]
	s.mu.Unlock()
	if ep != nil {
		if buf, err := ep.Reclaim(d.Handle); err == nil {
			bufpool.Put(buf)
		}
	}
}

// Network returns the shared simulated interconnect.
func (s *Scheduler) Network() *netsim.Network { return s.net }

// Staging returns the shared staging area.
func (s *Scheduler) Staging() *staging.Area { return s.area }

// Credits returns the shared transit credit account (nil before Run,
// and for an unnamed tenant without overload control).
func (s *Scheduler) Credits() *dataspaces.Credits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.credits
}

// QuarantineCounts sums Breaker.Trips over every route's poison
// breaker: routes quarantined and routes a probe released, so their
// difference is the routes quarantined now. Safe to call during Run.
func (s *Scheduler) QuarantineCounts() (opens, releases int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.tenants {
		p.mu.Lock()
		for _, rt := range p.routes {
			if rt.poison != nil {
				o, r := rt.poison.Trips()
				opens, releases = opens+o, releases+r
			}
		}
		p.mu.Unlock()
	}
	return opens, releases
}

// Autoscaler returns the bucket-pool autoscaler (nil unless
// SchedulerConfig.Autoscale was set).
func (s *Scheduler) Autoscaler() *overload.Autoscaler { return s.scaler }
