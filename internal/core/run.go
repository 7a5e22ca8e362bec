package core

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"insitu/internal/comm"
	"insitu/internal/dataspaces"
	"insitu/internal/overload"
	"insitu/internal/sim"
)

// Run executes every tenant's simulation concurrently over the shared
// staging fabric for the given number of steps and blocks until all
// simulations have finished and every in-transit task has drained.
// Steps are numbered 1..steps. Returns one Report per tenant, keyed by
// tenant name. A tenant with recovery enabled must be alone and its
// journal empty (a fresh run); its pipeline's Resume continues an
// interrupted one and its Replay reruns the routes over the saved
// checkpoints.
func (s *Scheduler) Run(steps int) (map[string]*Report, error) { return s.run(steps, nil, RunFresh) }

// RunMode says where a run's steps come from.
type RunMode uint8

const (
	RunFresh  RunMode = iota // the simulation, 1..steps
	RunResume                // an interrupted journaled run, past its last commit (Pipeline.Resume)
	RunReplay                // the journal's checkpoints (Pipeline.Replay)
)

// A run refused before any step runs returns one of these, wrapped: a
// Pipeline.Run, Resume or Replay on a tenant with siblings, a Resume or
// Replay without TenantConfig.Recovery, and a Replay over a journal with
// no usable checkpoint; when its checkpoints were cut for another
// decomposition, the refusal matches ErrDecompMismatch too.
var (
	ErrNotAlone       = errors.New("core: the tenant shares its fabric; call Scheduler.Run")
	ErrNoRecovery     = errors.New("core: Resume and Replay need TenantConfig.Recovery")
	ErrNoCheckpoint   = errors.New("core: the journal holds no checkpoint to replay")
	ErrDecompMismatch = sim.ErrDecompMismatch
)

// run is the single run function. lone, when non-nil, is the tenant
// whose Pipeline.Run, Resume or Replay called: it must have the fabric
// to itself.
func (s *Scheduler) run(steps int, lone *Pipeline, mode RunMode) (map[string]*Report, error) {
	if steps < 1 {
		return nil, fmt.Errorf("core: steps must be >= 1")
	}
	s.attachMu.Lock()
	s.mu.Lock()
	tenants := append([]*Pipeline(nil), s.tenants...)
	err := s.admitRun(tenants, lone, mode)
	s.ran = s.ran || err == nil
	s.mu.Unlock()
	s.attachMu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, p := range tenants {
		p.walk = make([]int, steps)
		for i := range p.walk {
			p.walk[i] = i + 1
		}
	}
	// admitRun left a journal only to a lone tenant.
	if p := tenants[0]; p.rec != nil {
		// Every record was fsynced by its Append; Close only releases
		// journal.wal's descriptor, so its error changes nothing.
		defer p.rec.j.Close()
		if err := p.plan(steps, mode); err != nil {
			return nil, err
		}
	}

	if err := s.start(tenants); err != nil {
		return nil, err
	}
	s.drain(tenants)
	// Nothing encodes or decodes against a delta base after the drain.
	s.codecs.ReleaseBases()

	reports := make(map[string]*Report, len(tenants))
	var errs []error
	for _, p := range tenants {
		rep := p.finishReport()
		reports[p.tenant] = rep
		if len(rep.Errs) > 0 {
			err := rep.Errs[0]
			if len(tenants) > 1 {
				err = fmt.Errorf("tenant %s: %w", p.tenant, err)
			}
			errs = append(errs, err)
		}
	}
	return reports, errors.Join(errs...)
}

// admitRun decides whether this run may claim the scheduler's single
// run. The caller holds s.mu.
func (s *Scheduler) admitRun(tenants []*Pipeline, lone *Pipeline, mode RunMode) error {
	switch {
	case s.ran:
		return fmt.Errorf("core: a scheduler runs once; build a new one to run again")
	case len(tenants) == 0:
		return fmt.Errorf("core: scheduler has no tenants")
	case lone != nil && len(tenants) > 1:
		return fmt.Errorf("%w: tenant %q has %d siblings", ErrNotAlone, lone.tenant, len(tenants)-1)
	case mode != RunFresh && lone.rec == nil:
		return ErrNoRecovery
	}
	for _, p := range tenants {
		switch {
		case p.rec == nil:
		case len(tenants) > 1:
			return fmt.Errorf("core: tenant %q has a journal, which must own the task queue; recovery needs a lone tenant", p.tenant)
		case mode == RunFresh && len(p.rec.j.Records()) > 0:
			return fmt.Errorf("core: journal %s is not empty; use Resume to continue the interrupted run", p.rec.j.Dir())
		}
	}
	return nil
}

// start arms the admission policy and starts the staging buckets: the
// one place the queue bound, the credit account and its reservations
// and the dequeue ring are sized, from the scheduler's
// config for named tenants and from the unnamed tenant's own overload
// block (AddTenant has the rule), whose routes each reserve one credit.
// The total is the most work the transit tier can hold, buckets
// draining plus every queue full. A supply the floors would consume
// degrades to one shared pool rather than failing or starving every
// account, and without any admission plane there is no credit account
// at all.
func (s *Scheduler) start(tenants []*Pipeline) error {
	s.registerRanks()
	bound, floor := s.cfg.QueueBound, s.cfg.TenantReserve
	names := make([]string, len(tenants))
	var accounts []string
	armed := false
	for i, p := range tenants {
		names[i] = p.tenant
		if p.ov == nil {
			continue
		}
		armed = true
		if p.tenant != "" {
			accounts = append(accounts, p.tenant)
			continue
		}
		for _, rt := range p.routes {
			if rt.stage != nil {
				accounts = append(accounts, rt.name)
			}
		}
		bound, floor = p.ov.QueueBound, 1
	}
	s.ds.SetQueueBound(bound)
	s.ds.SetTenants(names...)
	if armed {
		total := max(s.cfg.MaxBuckets, s.cfg.Buckets) + len(tenants)*cmp.Or(max(bound, 0), 2)
		reservations := make(map[string]int, len(accounts))
		if floor*len(accounts) < total {
			for _, a := range accounts {
				reservations[a] = floor
			}
		}
		c, err := dataspaces.NewCredits(total, reservations)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.credits = c
		s.mu.Unlock()
	}
	s.area.Start()
	return nil
}

// drain is the loop of Fig. 5 once the buckets are up: final results
// are folded in on a single goroutine that dispatches by tenant and
// then ticks the autoscaler (so that goroutine is the only mutator of
// the bucket pool and grow/shrink need no extra synchronization), every
// tenant's SPMD simulation + in-situ loop runs concurrently, the task
// queue closes once every tenant has finished stepping and drained, and
// the call returns when the tier is empty.
func (s *Scheduler) drain(tenants []*Pipeline) {
	// Close is idempotent, so racing calls are harmless.
	closeWhenDrained := func() {
		for _, p := range tenants {
			if !p.drained() {
				return
			}
		}
		s.ds.Close()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range s.area.Results() {
			if p := s.Tenant(res.Task.Tenant); p != nil {
				p.handleResult(res)
			}
			s.area.Recycle(res)
			closeWhenDrained()
			s.autoscaleTick(tenants)
		}
	}()

	var wg sync.WaitGroup
	for _, p := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comm.Run(p.sim.Ranks(), func(r *comm.Rank) {
				if err := p.rankLoop(r); err != nil {
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
	s.area.Wait()
	<-done
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
		ml = max(ml, overload.Level(p.curLevel.Load()))
	}
	sig := overload.AutoscaleSignals{
		QueueDepth:  s.ds.QueueDepth(),
		FreeBuckets: s.ds.FreeBuckets(),
		Active:      s.area.ActiveBuckets(),
		MaxLevel:    ml,
	}
	switch s.scaler.Observe(sig) {
	case 1:
		s.area.AddBucket()
	case -1:
		s.area.RetireBucket()
	}
}
