package core

import (
	"errors"
	"fmt"
	"time"

	"insitu/internal/codec"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/overload"
	"insitu/internal/sim"
	"insitu/internal/staging"
)

// SchedulerConfig sizes the shared staging fabric a Scheduler owns:
// one DataSpaces service, one bucket pool, and one interconnect, time-
// multiplexed across tenants.
type SchedulerConfig struct {
	DSServers int // DataSpaces service shards, shared by all tenants
	Buckets   int // initial in-transit staging buckets
	// MaxBuckets caps the pool when the autoscaler grows it
	// (0 = Buckets: a fixed pool).
	MaxBuckets int
	Net        netsim.Config
	// Credits is the shared transit credit total. 0 derives
	// MaxBuckets + tenants×QueueBound, mirroring the single-tenant
	// sizing rule per tenant queue.
	Credits int
	// TenantReserve is each tenant's guaranteed credit floor — the
	// bulkhead. Like the per-analysis Reserve, reservations degrade to
	// one shared pool when the floors would consume the whole account.
	TenantReserve int
	// QueueBound bounds each tenant's task queue independently
	// (0 = unbounded).
	QueueBound      int
	MaxTaskAttempts int
	// Autoscale, when non-nil, lets the scheduler grow and shrink the
	// bucket pool between Buckets-ish floors and MaxBuckets from live
	// queue/ladder pressure. Nil keeps the pool fixed.
	Autoscale *overload.AutoscaleConfig
	// Quarantine tunes the poison-route quarantine (zero value =
	// defaults: 3 strikes, probe after 4 denials).
	Quarantine overload.QuarantineConfig
}

// TenantConfig is one tenant's slice of the shared fabric: its own
// simulation, admission plane, and codecs; everything downstream of
// submission is shared. Recovery is deliberately absent — the journal
// assumes it owns the task queue, which is no longer true here.
type TenantConfig struct {
	Sim sim.Config
	// Overload tunes the tenant's admission plane (breaker, ladder,
	// estimator). Nil uses defaults: under a scheduler every tenant has
	// an admission plane, because the scheduler's bulkheads are built
	// from credits the plane acquires.
	Overload   *overload.Config
	Codecs     map[string]codec.Spec
	StepBudget time.Duration
	// Weight is the tenant's deficit-round-robin share (default 1): a
	// weight-2 tenant is served twice per ring turn.
	Weight int
}

// Scheduler is the policy over a transit fabric shared by multiple
// tenant pipelines: per-tenant credit bulkheads over one account,
// deficit-round-robin dequeue across tenant queues, a shared
// poison-route quarantine, and an optional bucket-pool autoscaler. The
// fabric and the run engine are the ones a standalone Pipeline uses.
// Build with NewScheduler, add tenants with AddTenant, register
// analyses on the returned pipelines, then Run once.
type Scheduler struct {
	cfg    SchedulerConfig
	fab    *fabric
	quar   *overload.Quarantine
	scaler *overload.Autoscaler
}

// NewScheduler validates the configuration and builds the shared
// subsystems. Tenants are added afterwards with AddTenant.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	f, err := newFabric(cfg.Net, cfg.DSServers, cfg.Buckets, cfg.MaxTaskAttempts)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBuckets != 0 && cfg.MaxBuckets < cfg.Buckets {
		return nil, fmt.Errorf("core: MaxBuckets %d below initial Buckets %d", cfg.MaxBuckets, cfg.Buckets)
	}
	s := &Scheduler{cfg: cfg, fab: f, quar: overload.NewQuarantine(cfg.Quarantine)}
	f.publishPolicy = s.publish
	if cfg.Autoscale != nil {
		asc := *cfg.Autoscale
		if asc.Max == 0 {
			asc.Max = max(cfg.MaxBuckets, cfg.Buckets)
		}
		s.scaler = overload.NewAutoscaler(asc)
	}
	return s, nil
}

// AddTenant builds a tenant pipeline over the shared fabric and
// pre-registers its rank endpoints (named "<tenant>/sim-<rank>" and
// tagged with the tenant, so transfer noise is attributed to it).
// Register analyses on the returned pipeline before Run.
func (s *Scheduler) AddTenant(name string, cfg TenantConfig) (*Pipeline, error) {
	if name == "" {
		return nil, fmt.Errorf("core: tenant name must be non-empty")
	}
	ov := cfg.Overload
	if ov == nil {
		ov = &overload.Config{}
	}
	p, err := newTenant(s.fab, name, Config{
		Sim: cfg.Sim, StepBudget: cfg.StepBudget, Codecs: cfg.Codecs, Overload: ov,
	})
	if err != nil {
		return nil, err
	}
	p.quar, p.weight = s.quar, max(cfg.Weight, 1)
	if err := s.fab.attach(p); err != nil {
		return nil, err
	}
	s.fab.registerRanks(p)
	return p, nil
}

// Tenant returns a tenant's pipeline, or nil if the name is unknown.
func (s *Scheduler) Tenant(name string) *Pipeline { return s.fab.tenant(name) }

// TenantEndpoints returns a tenant's pre-registered rank endpoints in
// rank order — the handles chaos tests scope fault injection to.
func (s *Scheduler) TenantEndpoints(name string) []*dart.Endpoint {
	p := s.fab.tenant(name)
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*dart.Endpoint(nil), p.rankEps...)
}

// Network returns the shared simulated interconnect.
func (s *Scheduler) Network() *netsim.Network { return s.fab.net }

// Staging returns the shared staging area.
func (s *Scheduler) Staging() *staging.Area { return s.fab.area }

// Credits returns the shared transit credit account (nil before Run).
func (s *Scheduler) Credits() *dataspaces.Credits { return s.fab.ds.Credits() }

// Quarantine returns the shared poison-route quarantine.
func (s *Scheduler) Quarantine() *overload.Quarantine { return s.quar }

// Autoscaler returns the bucket-pool autoscaler (nil unless
// SchedulerConfig.Autoscale was set).
func (s *Scheduler) Autoscaler() *overload.Autoscaler { return s.scaler }

// EnableObs attaches one observability plane to the shared subsystems
// and publishes each tenant's families under a tenant label. Tenants
// added later are published as they arrive. Idempotent; call before
// Run.
func (s *Scheduler) EnableObs() *obs.Plane { return s.fab.enableObs() }

// publish registers the scheduler's own policy families; the fabric
// calls it once, when the plane comes up.
func (s *Scheduler) publish(reg *obs.Registry) {
	reg.GaugeFunc("staging_active_buckets", "staging buckets currently serving the shared pool",
		func() float64 { return float64(s.fab.area.ActiveBuckets()) })
	reg.CounterFunc("scheduler_bucket_grows_total", "bucket-pool grow decisions applied by the autoscaler",
		func() float64 {
			if s.scaler == nil {
				return 0
			}
			return float64(s.scaler.Grows())
		})
	reg.CounterFunc("scheduler_bucket_shrinks_total", "bucket-pool shrink decisions applied by the autoscaler",
		func() float64 {
			if s.scaler == nil {
				return 0
			}
			return float64(s.scaler.Shrinks())
		})
	reg.CounterFunc("quarantine_opens_total", "poison-route quarantine trips across all tenants",
		func() float64 { return float64(s.quar.Opens()) })
	reg.CounterFunc("quarantine_releases_total", "quarantined routes released by a successful probe",
		func() float64 { return float64(s.quar.Releases()) })
}

// Run executes every tenant's simulation concurrently over the shared
// staging fabric for the given number of steps and blocks until all
// simulations have finished and every in-transit task has drained.
// Returns one Report per tenant.
func (s *Scheduler) Run(steps int) (map[string]*Report, error) {
	if steps < 1 {
		return nil, fmt.Errorf("core: steps must be >= 1")
	}
	tenants, ok := s.fab.begin()
	if !ok {
		return nil, fmt.Errorf("core: a scheduler runs once; build a new one to run again")
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: scheduler has no tenants")
	}

	// Shared admission plane: per-tenant queue bounds, DRR weights, one
	// credit account with per-tenant bulkhead floors, and the
	// quarantine's submit-time guard (a half-open probe always passes).
	ds := s.fab.ds
	ds.SetQueueBound(s.cfg.QueueBound)
	weights := make(map[string]int, len(tenants))
	reservations := make(map[string]int, len(tenants))
	for _, p := range tenants {
		weights[p.tenant] = p.weight
		reservations[p.tenant] = s.cfg.TenantReserve
		p.buildRoutes()
	}
	total := s.cfg.Credits
	if total <= 0 {
		qb := s.cfg.QueueBound
		if qb <= 0 {
			qb = 2
		}
		total = max(s.cfg.MaxBuckets, s.cfg.Buckets) + len(tenants)*qb
	}
	if s.cfg.TenantReserve*len(tenants) >= total {
		reservations = nil
	}
	if err := ds.EnableCredits(total, reservations); err != nil {
		return nil, err
	}
	ds.SetTenantWeights(weights)
	quar := s.quar
	ds.SetAdmissionGuard(func(tenant, analysis string, probe bool) error {
		if probe || !quar.Barred(tenant, analysis) {
			return nil
		}
		return fmt.Errorf("dataspaces: submit %s/%s: %w", tenant, analysis, overload.ErrQuarantined)
	})

	// The autoscaler acts on the post-result pressure signals from the
	// engine's drain goroutine, the only pool mutator, so grow/shrink
	// need no extra synchronization.
	s.fab.run(tenants, steps, func() { s.autoscaleTick(tenants) })

	reports := make(map[string]*Report, len(tenants))
	var errs []error
	for _, p := range tenants {
		rep, err := p.finishReport(steps)
		reports[p.tenant] = rep
		if err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", p.tenant, err))
		}
	}
	return reports, errors.Join(errs...)
}

// autoscaleTick folds the current pressure signals into the autoscaler
// and applies its verdict to the bucket pool. Only the drain goroutine
// calls it.
func (s *Scheduler) autoscaleTick(tenants []*Pipeline) {
	if s.scaler == nil {
		return
	}
	ml := overload.LevelFull
	for _, p := range tenants {
		if l := overload.Level(p.curLevel.Load()); l > ml {
			ml = l
		}
	}
	sig := overload.AutoscaleSignals{
		QueueDepth:  s.fab.ds.QueueDepth(),
		FreeBuckets: s.fab.ds.FreeBuckets(),
		Active:      s.fab.area.ActiveBuckets(),
		MaxLevel:    ml,
	}
	switch s.scaler.Observe(sig) {
	case 1:
		s.fab.area.AddBucket()
	case -1:
		s.fab.area.RetireBucket()
	}
}
