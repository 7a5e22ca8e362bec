package core

import (
	"time"

	"insitu/internal/dataspaces"
	"insitu/internal/obs"
	"insitu/internal/overload"
)

// EnableObs attaches the one observability plane: a span recorder
// shared by the simulation loop, the DART transport, the task lifecycle and
// every tenant's admission plane, plus a metrics registry holding the
// fabric's and the scheduler's families once and each tenant's families
// under its label. Tenants added later are published as they arrive.
// Idempotent. Call it before Run: the step loops read the plane
// unlocked, so once a run has begun it attaches nothing and returns the
// plane attached before the run, or nil. The returned plane's exporters
// (Chrome trace, JSONL, Prometheus text) and the obs.Handler HTTP
// endpoint render it live or after the run.
func (s *Scheduler) EnableObs() *obs.Plane {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	s.mu.Lock()
	if s.plane != nil || s.ran {
		defer s.mu.Unlock()
		return s.plane
	}
	pl := obs.NewPlane()
	s.plane = pl
	tenants := append([]*Pipeline(nil), s.tenants...)
	s.mu.Unlock()

	// Registration happens outside s.mu: the sampled functions take
	// tenant locks, so holding it here would invert the lock order
	// against a concurrent scrape.
	s.dart.SetPlane(pl)
	s.ds.SetPlane(pl)
	s.area.SetPlane(pl)
	reg := pl.Registry()
	reg.CounterFunc("net_transfers_total", "transfers accounted on the simulated interconnect",
		func() float64 { return float64(s.net.Stats().Transfers) })
	reg.CounterFunc("net_bytes_moved_total", "bytes moved over the simulated interconnect",
		func() float64 { return float64(s.net.Stats().BytesMoved) })
	reg.CounterFunc("net_faults_total", "transfer attempts perturbed by the fault injector",
		func() float64 { return float64(s.net.Stats().Faulted) })
	reg.GaugeFunc("staging_active_buckets", "staging buckets currently serving the shared pool",
		func() float64 { return float64(s.area.ActiveBuckets()) })
	// The autoscaler families read zero on a fixed pool.
	scaled := func(name, help string, sample func(*overload.Autoscaler) int64) {
		reg.CounterFunc(name, help, func() float64 {
			if s.scaler == nil {
				return 0
			}
			return float64(sample(s.scaler))
		})
	}
	scaled("scheduler_bucket_grows_total", "bucket-pool grow decisions applied by the autoscaler", (*overload.Autoscaler).Grows)
	scaled("scheduler_bucket_shrinks_total", "bucket-pool shrink decisions applied by the autoscaler", (*overload.Autoscaler).Shrinks)
	reg.CounterFunc("quarantine_opens_total", "poison-route quarantine trips across all tenants",
		func() float64 { opens, _ := s.QuarantineCounts(); return float64(opens) })
	reg.CounterFunc("quarantine_releases_total", "quarantined routes released by a successful probe",
		func() float64 { _, releases := s.QuarantineCounts(); return float64(releases) })
	// The credit families read zero without an account, so every run
	// exposes the same families.
	credit := func(name, help string, sample func(*dataspaces.Credits) int) {
		reg.GaugeFunc(name, help, func() float64 {
			if c := s.Credits(); c != nil {
				return float64(sample(c))
			}
			return 0
		})
	}
	credit("credits_total", "fixed flow-control credit supply (0 when credits are disabled)", (*dataspaces.Credits).Total)
	credit("credits_available", "flow-control credits currently grantable", (*dataspaces.Credits).Available)
	credit("credits_outstanding", "flow-control credits held by producers", (*dataspaces.Credits).Outstanding)
	for _, p := range tenants {
		p.publish(reg)
	}
	return pl
}

// EnableObs is the scheduler's: the plane belongs to the fabric.
func (p *Pipeline) EnableObs() *obs.Plane { return p.sched.EnableObs() }

// publish registers this tenant's metric families: unlabelled for the
// unnamed tenant, under tenant=<name> otherwise.
func (p *Pipeline) publish(reg *obs.Registry) {
	// The Table II ledger's aggregates: monotonic totals sampled at
	// export time, and the step wall latency as a histogram that the
	// rank's stage seam feeds with every rank's own wall time of every
	// step, beside RecordStepWall (which keeps the per-step maximum).
	col := p.col
	ledger := func(name, help string, sample func() float64) {
		reg.CounterFunc(name, help, sample, p.labels...)
	}
	ledger("pipeline_sim_seconds_total", "total simulation time, summed over per-step maxima across ranks",
		func() float64 { total, _, _ := col.SimTime(); return total.Seconds() })
	ledger("pipeline_degraded_steps_total", "analysis steps that fell back fully in-situ or dead-lettered",
		func() float64 { return float64(p.degradedSteps()) })
	ledger("pipeline_shed_steps_total", "analysis steps dropped with an explicit shed marker",
		func() float64 { return float64(p.stepsShed()) })
	ledger("staging_dead_letters_total", "in-transit tasks that exhausted their attempt budget",
		func() float64 { return float64(p.deadLetters.Load()) })
	ledger("credits_denied_total", "transit credits the admission pass was refused",
		func() float64 { return float64(p.creditsDenied.Load()) })
	ledger("pipeline_transit_bytes_total", "intermediate bytes moved to the staging tier, all analyses",
		func() float64 {
			var n int64
			for _, name := range col.Analyses() {
				n += col.Total(name).MoveBytes
			}
			return float64(n)
		})
	ledger("pipeline_transit_seconds_total", "in-transit compute wall time, all analyses",
		func() float64 {
			var d time.Duration
			for _, name := range col.Analyses() {
				d += col.Total(name).InTransit
			}
			return d.Seconds()
		})
	stepWall := reg.Histogram("pipeline_step_wall_seconds",
		"simulation-side wall time of one step on one rank (one sample per rank per step)", obs.LatencyBuckets, p.labels...)
	p.mu.Lock()
	p.stepWall = stepWall
	p.mu.Unlock()
	// One series per ladder level, sampling the verdict tallies — even
	// runs without overload control expose the same families.
	for lv := range p.verdicts {
		reg.CounterFunc("admission_decisions_total", "admission ladder verdicts by level",
			func() float64 { return float64(p.verdicts[lv].Load()) },
			append([]obs.Attr{obs.Str("level", overload.Level(lv).String())}, p.labels...)...)
	}
	// locked samples a p.mu-guarded quantity at scrape time.
	locked := func(name, help string, sample func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(sample())
		}, p.labels...)
	}
	locked("breaker_opens_total", "circuit-breaker entries into open across hybrid routes: every trip and every failed probe's re-open",
		func() int64 { opens, _ := p.breakerTotals(); return opens })
	locked("breaker_transitions_total", "circuit-breaker state transitions across hybrid routes",
		func() int64 { _, transitions := p.breakerTotals(); return transitions })
	locked("pipeline_tasks_submitted_total", "in-transit tasks successfully submitted", func() int64 { return p.submitted })
	locked("pipeline_tasks_completed_total", "in-transit tasks drained to a final result", func() int64 { return p.completed })
	// Recovery families are registered unconditionally (zero without a
	// journal) so scrapes see a stable schema across configurations.
	recCounter := func(name, help string, sample func(*recState) int64) {
		reg.CounterFunc(name, help, func() float64 {
			if p.rec == nil {
				return 0
			}
			return float64(sample(p.rec))
		}, p.labels...)
	}
	recCounter("recovery_replayed_tasks_total", "resubmissions of journaled-but-uncommitted tasks after resume",
		func(rec *recState) int64 { return rec.replayed.Load() })
	recCounter("recovery_commits_total", "step commit records appended to the journal",
		func(rec *recState) int64 { return rec.commits.Load() })
	recCounter("recovery_checkpoints_total", "checkpoint records appended to the journal",
		func(rec *recState) int64 { return rec.ckpts.Load() })
	recCounter("recovery_journal_fsyncs_total", "fsync calls issued by the step journal",
		func(rec *recState) int64 { return rec.j.Fsyncs() })
	reg.GaugeFunc("recovery_resume_seconds", "wall time from Resume to the first live step",
		func() float64 {
			if p.rec == nil {
				return 0
			}
			return time.Duration(p.rec.resumeWall.Load()).Seconds()
		}, p.labels...)
}

// Status snapshots what no metric family carries for the /status
// endpoint: the tenants, the breaker positions, "sim_done" once every
// simulation has finished and "done" once every submitted task has
// drained too. Task, queue, bucket, codec and credit counts are the
// pipeline_tasks_*, dataspaces_*, staging_active_buckets, dart_codec_*
// and credits_* families the same endpoint serves. Safe to call from
// any goroutine while Run is in flight.
func (s *Scheduler) Status() map[string]any {
	s.mu.Lock()
	tenants := append([]*Pipeline(nil), s.tenants...)
	s.mu.Unlock()
	simDone, drained := true, true
	names := make([]string, len(tenants))
	breakers := map[string]string{}
	for i, p := range tenants {
		names[i] = p.tenant
		p.mu.Lock()
		simDone, drained = simDone && p.simDone, drained && p.completed == p.submitted
		p.mu.Unlock()
		for route, st := range p.BreakerStates() {
			breakers[p.prefix+route] = st.String()
		}
	}
	return map[string]any{
		"tenants":  names,
		"sim_done": simDone,
		"done":     simDone && drained,
		"breakers": breakers,
	}
}
