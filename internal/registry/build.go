package registry

import (
	"cmp"
	"fmt"
	"time"

	"insitu/internal/codec"
	"insitu/internal/core"
	"insitu/internal/faults"
	"insitu/internal/grid"
	"insitu/internal/imagestore"
	"insitu/internal/sim"
)

// Built is one constructed, ready-to-Run pipeline topology: a
// core.Scheduler with one tenant pipeline per config tenant. The caller
// owns the lifecycle — Run once, then Close.
type Built struct {
	// Config is the validated config this topology was built from.
	Config *Config
	// Scheduler owns the fabric and runs every tenant.
	Scheduler *core.Scheduler
	// Pipeline is the lone tenant's pipeline (nil when the config
	// declares several): its Run, Resume and Replay are the scheduler's.
	Pipeline *core.Pipeline
	// Store is the opened image store, when the config declared one.
	Store *imagestore.Store
	// Tenants holds each tenant's pipeline and constructed analyses,
	// in config order.
	Tenants []BuiltTenant
}

// BuiltTenant is one tenant's constructed slice of a Built topology.
type BuiltTenant struct {
	// Name is the tenant name ("" for unnamed single-tenant configs).
	Name string
	// Pipeline is the tenant's pipeline (for single-tenant configs,
	// identical to Built.Pipeline).
	Pipeline *core.Pipeline
	// Analyses are the registered analyses, in config order.
	Analyses []core.Analysis
	// Routes names the hybrid routes among Analyses — the analyses
	// whose payloads cross the transit fabric.
	Routes []string
}

// Close releases the topology's resources (the image store; pipelines
// and schedulers release theirs when Run returns).
func (b *Built) Close() error {
	if b.Store != nil {
		return b.Store.Close()
	}
	return nil
}

// Steps resolves the run length: the explicit argument when > 0, else
// the config's steps, else def.
func (b *Built) Steps(explicit, def int) int {
	if explicit > 0 {
		return explicit
	}
	if b.Config.Steps > 0 {
		return b.Config.Steps
	}
	return def
}

// Run runs the topology once and returns one report per tenant keyed
// by tenant name (the empty name for an unnamed lone tenant). Modes
// other than core.RunFresh need a single-tenant config with a recovery
// block. A non-nil error beside non-empty reports means analysis
// routes failed while the run itself completed.
func (b *Built) Run(steps int, mode core.RunMode) (map[string]*core.Report, error) {
	if mode == core.RunFresh {
		return b.Scheduler.Run(steps)
	}
	t, run := b.Tenants[0], b.Tenants[0].Pipeline.Resume
	if mode == core.RunReplay {
		run = t.Pipeline.Replay
	}
	rep, err := run(steps)
	if rep == nil {
		return nil, err
	}
	return map[string]*core.Report{t.Name: rep}, err
}

// Build validates cfg and constructs the declared topology, routing
// every analysis through the registry. It is the single construction
// path for config-declared runs: one scheduler, one AddTenant per
// config tenant, in order. Validate has already confined the
// scheduler's keys to multi-tenant configs and recovery and the store
// to single-tenant ones.
func Build(cfg *Config) (*Built, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scfg := core.SchedulerConfig{
		DSServers:     cmp.Or(cfg.Fabric.DSServers, 2),
		Buckets:       max(1, cfg.TransitBuckets()),
		MaxBuckets:    cfg.Fabric.MaxBuckets,
		Net:           netConfig(cfg.Fabric.Net),
		TenantReserve: cfg.Fabric.TenantReserve,
		QueueBound:    cfg.Fabric.QueueBound,
		Autoscale:     cfg.Fabric.Autoscale,
	}
	if q := cfg.Fabric.Quarantine; q != nil {
		scfg.Quarantine = *q
	}
	s, err := core.NewScheduler(scfg)
	if err != nil {
		return nil, err
	}

	built := &Built{Config: cfg, Scheduler: s}
	fail := func(err error) (*Built, error) {
		built.Close()
		return nil, err
	}
	if cfg.Store != nil {
		if built.Store, err = imagestore.Open(cfg.Store.Dir); err != nil {
			return nil, err
		}
	}
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		analyses, routes, codecs, err := buildAnalyses(t)
		if err != nil {
			return fail(err)
		}
		tcfg := core.TenantConfig{
			Sim:        simConfig(t.Sim),
			Overload:   overloadConfig(t.Overload),
			Codecs:     codecs,
			StepBudget: time.Duration(t.StepBudgetMS) * time.Millisecond,
			Recovery:   cfg.Recovery,
		}
		if built.Store != nil {
			tcfg.Store = built.Store
		}
		p, err := s.AddTenant(t.Name, tcfg)
		if err != nil {
			return fail(err)
		}
		for ai, a := range analyses {
			if err := p.Register(a); err != nil {
				return fail(fmt.Errorf("tenants[%d].analyses[%d]: %w", ti, ai, err))
			}
		}
		built.Tenants = append(built.Tenants, BuiltTenant{
			Name: t.Name, Pipeline: p, Analyses: analyses, Routes: routes,
		})
	}
	if len(built.Tenants) == 1 {
		built.Pipeline = built.Tenants[0].Pipeline
	}
	installFaults(cfg, s)
	return built, nil
}

// buildAnalyses constructs one tenant's analyses in config order and
// derives the hybrid route list and the per-route codec map.
func buildAnalyses(t *TenantConfig) ([]core.Analysis, []string, map[string]codec.Spec, error) {
	var (
		analyses []core.Analysis
		routes   []string
		codecs   map[string]codec.Spec
	)
	setCodec := func(route string, cc *CodecConfig) {
		if codecs == nil {
			codecs = make(map[string]codec.Spec)
		}
		codecs[route] = codecSpec(cc)
	}
	if t.Codec != nil {
		setCodec("*", t.Codec)
	}
	for ai := range t.Analyses {
		ac := &t.Analyses[ai]
		a, err := New(ac.Analysis, ac.params())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("analysis %q: %w", ac.Analysis, err)
		}
		analyses = append(analyses, a)
		if isHybridRoute(a) {
			routes = append(routes, a.Name())
		}
		if ac.Codec != nil {
			setCodec(a.Name(), ac.Codec)
		}
	}
	return analyses, routes, codecs, nil
}

// isHybridRoute reports whether the analysis stages payloads across
// the transit fabric (it carries an in-situ stage feeding an
// in-transit consumer).
func isHybridRoute(a core.Analysis) bool {
	_, ok := a.(interface {
		InSituStage(ctx *core.Ctx) ([]byte, error)
	})
	return ok
}

// installFaults converts the config's fault schedule and installs it
// on the modeled network. A tenant-scoped window resolves to that
// tenant's rank endpoint ids, which registers the fabric's rank
// endpoints now; unscoped schedules leave that to Run.
func installFaults(cfg *Config, s *core.Scheduler) {
	if cfg.Faults == nil {
		return
	}
	fc := faults.Config{Seed: cfg.Faults.Seed}
	for _, sd := range cfg.Faults.Slowdowns {
		w := faults.SlowdownWindow{From: sd.From, Until: sd.Until, Factor: sd.Factor}
		if sd.Tenant != "" {
			for _, ep := range s.TenantEndpoints(sd.Tenant) {
				w.Endpoints = append(w.Endpoints, ep.ID())
			}
		}
		fc.Slowdowns = append(fc.Slowdowns, w)
	}
	s.Network().SetFaults(faults.New(fc))
}

// simConfig converts a validated SimConfig to the proxy simulation's
// config, starting from the repo defaults.
func simConfig(s SimConfig) sim.Config {
	c := sim.DefaultConfig(grid.NewBox(s.NX, s.NY, s.NZ), s.PX, s.PY, s.PZ)
	if s.SubSteps > 0 {
		c.SubSteps = s.SubSteps
	}
	if s.Seed != 0 {
		c.Seed = s.Seed
	}
	return c
}
