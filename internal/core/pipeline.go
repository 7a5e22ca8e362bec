package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/comm"
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

// Config sizes the secondary resource, mirroring the paper's Table I
// core allocations (simulation/in-situ cores come from the sim
// decomposition; DataSpaces-service cores and in-transit cores are
// configured here).
type Config struct {
	Sim       sim.Config
	DSServers int // DataSpaces service shards
	Buckets   int // in-transit staging buckets
	Net       netsim.Config
	// StepBudget bounds each step's hybrid transit path. When set,
	// rank 0 probes staging health within the budget before submitting
	// hybrid work — a failed probe degrades the step to the analyses'
	// in-situ fallbacks — and every submitted task carries the budget
	// as its data-movement deadline. Zero disables probing and
	// deadlines: steps never degrade on time.
	StepBudget time.Duration
	// MaxTaskAttempts bounds how many times a task is handed to a
	// bucket before it is dead-lettered (0 = staging default of 3).
	MaxTaskAttempts int
	// Overload, when non-nil, enables the graded overload-control
	// plane: credit-based admission, a per-analysis-route circuit
	// breaker, and the admission ladder (full → delta → quantized →
	// shaped → in-situ → shed) replace the single StepBudget probe as
	// the degradation trigger. Nil leaves the probe as the only
	// trigger: the same per-route verdicts with two rungs, full and
	// in-situ.
	Overload *overload.Config
	// Codecs selects the default transfer-path codec per hybrid route:
	// the key is an analysis name, with "*" as the fallback for routes
	// not named. Unlisted routes (and a nil map) use the identity
	// codec, which registers raw payloads byte-for-byte as before. The
	// admission ladder's delta/quantized rungs override the configured
	// spec for the steps they govern.
	Codecs map[string]codec.Spec
	// Recovery, when non-nil, enables durable run recovery: a
	// write-ahead step journal, periodic bp checkpoints, and a Resume
	// path that continues a crashed run bit-identically from its last
	// committed step. Nil keeps the journal-free behavior byte for
	// byte.
	Recovery *RecoveryConfig
	// Store, when non-nil, files every rendered frame a FrameAnalysis
	// produces into the Cinema-style image database as the run goes:
	// Report.Results holds FrameRefs instead of raw framebuffers, and
	// the pooled image buffers are recycled once their pixels are
	// encoded. Nil keeps the in-memory result path byte for byte.
	Store FrameSink
}

// DefaultConfig mirrors the paper's resource ratios at laptop scale.
func DefaultConfig(simCfg sim.Config) Config {
	return Config{Sim: simCfg, DSServers: 4, Buckets: 4, Net: netsim.Gemini()}
}

// Pipeline is one tenant of a transit fabric: a simulation, the
// analyses registered on it, its admission and recovery planes, and its
// results (the producer half of the paper's Fig. 5). Built standalone
// by NewPipeline it owns its fabric and runs itself; built by
// Scheduler.AddTenant it shares the scheduler's.
type Pipeline struct {
	cfg Config
	fab *fabric

	sim *sim.Sim
	col *metrics.Collector

	analyses []Analysis

	// frameVars maps a FrameAnalysis name to its store variable.
	// Written only by Register (before Run), read by persistFrames.
	frameVars map[string]string

	// Overload-control plane (nil/empty when Config.Overload is nil).
	ov     *overload.Config
	est    *overload.Estimator
	routes map[string]*routeState

	// Recovery plane (nil when Config.Recovery is nil).
	rec *recState

	// Multi-tenant plane (zero/nil outside a Scheduler). tenant is the
	// pipeline's tenant name, labels the tenant=<name> attribute its
	// metric families and admission events carry, quar the shared
	// poison-route quarantine, weight the deficit-round-robin share, and
	// curLevel the worst ladder level of the latest admission pass,
	// exported for the autoscaler. tenant == "" is what marks a
	// standalone pipeline.
	tenant   string
	labels   []obs.Attr
	quar     *overload.Quarantine
	weight   int
	curLevel atomic.Int64

	mu      sync.Mutex
	results map[string]map[int]any // analysis -> step -> output
	runErrs []error
	warns   []error
	rankEps []*dart.Endpoint // this tenant's rank endpoints, by rank

	// admitCtr holds the pre-resolved admission counters, one per ladder
	// level, and stepWall the per-step wall-latency histogram (both nil
	// until the plane is attached).
	admitCtr map[overload.Level]*obs.Counter
	stepWall *obs.Histogram

	// Drain accounting: the queue closes once the simulation has
	// finished AND every successfully submitted task has produced its
	// one final Result (requeued attempts emit nothing until the task
	// completes or dead-letters). This replaces an upfront expected
	// count, which cannot anticipate degraded steps or requeues.
	submitted int64
	completed int64
	simDone   bool
}

// routeState is one hybrid analysis route's overload-control state:
// its circuit breaker, its admission ladder, and the last ladder level
// marked on the timeline (rank-0 admission only).
type routeState struct {
	breaker   *overload.Breaker
	ladder    *overload.Ladder
	lastLevel overload.Level
}

// admitDecision is rank 0's per-analysis admission verdict for one
// step, broadcast so every rank takes the same branch (the in-situ
// fallbacks use collectives). Probe marks the single task a quarantined
// route is allowed to send while half-open.
type admitDecision struct {
	Name     string
	Level    overload.Level
	Reason   string
	Credited bool
	Probe    bool
}

// NewPipeline validates the configuration and builds all subsystems.
func NewPipeline(cfg Config) (*Pipeline, error) {
	f, err := newFabric(cfg.Net, cfg.DSServers, cfg.Buckets, cfg.MaxTaskAttempts)
	if err != nil {
		return nil, err
	}
	p, err := newTenant(f, "", cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Recovery != nil {
		if cfg.Recovery.Dir == "" {
			return nil, fmt.Errorf("core: Recovery.Dir must be set")
		}
		j, err := recovery.Open(cfg.Recovery.Dir)
		if err != nil {
			return nil, err
		}
		every := cfg.Recovery.Every
		if every <= 0 {
			every = 5
		}
		p.rec = &recState{j: j, every: every, kill: cfg.Recovery.Kill, nextCommit: 1}
	}
	f.tenants = []*Pipeline{p}
	return p, nil
}

// newTenant builds the per-tenant state of a pipeline over fabric f:
// its simulation, collector, result maps and, when cfg.Overload is set,
// its admission plane.
func newTenant(f *fabric, name string, cfg Config) (*Pipeline, error) {
	s, err := sim.New(cfg.Sim)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:       cfg,
		fab:       f,
		sim:       s,
		col:       metrics.NewCollector(),
		tenant:    name,
		results:   make(map[string]map[int]any),
		frameVars: make(map[string]string),
	}
	if name != "" {
		p.labels = []obs.Attr{obs.Str("tenant", name)}
	}
	if cfg.Overload != nil {
		ov := cfg.Overload.WithDefaults()
		p.ov = &ov
		p.est = overload.NewEstimator(ov.LatencyAlpha, ov.QueueAlpha)
		p.routes = make(map[string]*routeState)
	}
	return p, nil
}

// Staging returns the staging area, exposing bucket crash injection
// and resilience counters to chaos tests.
func (p *Pipeline) Staging() *staging.Area { return p.fab.area }

// Register adds an analysis; all registrations must happen before Run.
func (p *Pipeline) Register(a Analysis) {
	p.analyses = append(p.analyses, a)
	if fa, ok := a.(FrameAnalysis); ok {
		p.frameVars[a.Name()] = fa.FrameVar()
	}
}

// Sim returns the simulation description.
func (p *Pipeline) Sim() *sim.Sim { return p.sim }

// Network returns the simulated interconnect, for byte accounting.
func (p *Pipeline) Network() *netsim.Network { return p.fab.net }

// EnableObs attaches the observability plane: one span recorder shared
// by the timeline, the DART transport, the task lifecycle, and
// the admission plane, plus a metrics registry every subsystem
// publishes into. The plane belongs to the fabric: a scheduler tenant
// gets the scheduler's plane. Idempotent; call before Run. The returned
// plane's exporters (Chrome trace, JSONL, Prometheus text) and the
// obs.Handler HTTP endpoint render it live or after the run.
func (p *Pipeline) EnableObs() *obs.Plane { return p.fab.enableObs() }

// publish registers this tenant's metric families: unlabelled for a
// standalone pipeline, under tenant=<name> in a scheduler.
func (p *Pipeline) publish(reg *obs.Registry) {
	// The Table II ledger's aggregates: monotonic totals sampled at
	// export time, and the per-step wall latency as a histogram that
	// rankLoop feeds beside RecordStepWall.
	col := p.col
	ledger := func(name, help string, sample func() float64) {
		reg.CounterFunc(name, help, sample, p.labels...)
	}
	ledger("pipeline_sim_seconds_total", "total simulation time, summed over per-step maxima across ranks",
		func() float64 { total, _, _ := col.SimTime(); return total.Seconds() })
	ledger("pipeline_degraded_steps_total", "analysis steps that fell back fully in-situ or dead-lettered",
		func() float64 { return float64(col.Resilience().DegradedSteps) })
	ledger("pipeline_delta_steps_total", "analysis steps admitted with delta-encoded payloads",
		func() float64 { return float64(col.Overload().StepsDelta) })
	ledger("pipeline_quantized_steps_total", "analysis steps admitted with quantized payloads",
		func() float64 { return float64(col.Overload().StepsQuantized) })
	ledger("pipeline_shaped_steps_total", "analysis steps admitted at a reduced (shaped) payload level",
		func() float64 { return float64(col.Overload().StepsShaped) })
	ledger("pipeline_shed_steps_total", "analysis steps dropped with an explicit shed marker",
		func() float64 { return float64(col.Overload().StepsShed) })
	ledger("pipeline_fallback_steps_total", "analysis steps the admission ladder forced in-situ",
		func() float64 { return float64(col.Overload().StepsFallback) })
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
		"per-step simulation-side wall time (max over ranks per sample)", obs.LatencyBuckets, p.labels...)
	// Admission counters are registered for every ladder level up front
	// — even runs without overload control expose the same families.
	admitCtr := make(map[overload.Level]*obs.Counter, 6)
	for _, lv := range []overload.Level{
		overload.LevelFull, overload.LevelDelta, overload.LevelQuantized,
		overload.LevelShaped, overload.LevelInSitu, overload.LevelShed,
	} {
		admitCtr[lv] = reg.Counter("admission_decisions_total", "admission ladder verdicts by level",
			append([]obs.Attr{obs.Str("level", lv.String())}, p.labels...)...)
	}
	p.mu.Lock()
	p.admitCtr, p.stepWall = admitCtr, stepWall
	p.mu.Unlock()
	// locked samples a p.mu-guarded quantity at scrape time.
	locked := func(name, help string, sample func() int64) {
		reg.CounterFunc(name, help, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(sample())
		}, p.labels...)
	}
	locked("breaker_opens_total", "circuit-breaker trips across hybrid routes",
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
			p.rec.mu.Lock()
			defer p.rec.mu.Unlock()
			return p.rec.resumeSeconds
		}, p.labels...)
}

// Status snapshots the pipeline's live state for the /status endpoint:
// drain accounting, queue and bucket occupancy, breaker positions,
// the credit account, and the resilience counters. Safe to call from
// any goroutine while Run is in flight.
func (p *Pipeline) Status() map[string]any {
	p.mu.Lock()
	submitted, completed, simDone := p.submitted, p.completed, p.simDone
	p.mu.Unlock()
	st := map[string]any{
		"submitted":    submitted,
		"completed":    completed,
		"sim_done":     simDone,
		"done":         simDone && submitted == completed,
		"queue_depth":  p.fab.ds.QueueDepth(),
		"free_buckets": p.fab.ds.FreeBuckets(),
		"resilience":   p.resilience(),
	}
	if cs := p.fab.dart.CodecStats(); cs.RawBytes > 0 {
		st["codec"] = map[string]any{
			"raw_bytes":     cs.RawBytes,
			"encoded_bytes": cs.EncodedBytes,
			"ratio":         cs.Ratio(),
			"max_error":     cs.MaxError,
		}
	}
	if br := p.BreakerStates(); len(br) > 0 {
		m := make(map[string]string, len(br))
		for name, s := range br {
			m[name] = s.String()
		}
		st["breakers"] = m
	}
	if c := p.fab.ds.Credits(); c != nil {
		st["credits"] = map[string]any{
			"total":       c.Total(),
			"available":   c.Available(),
			"outstanding": c.Outstanding(),
			"denied":      c.Denied(),
		}
	}
	return st
}

// PinnedRegions returns the number of intermediate-data regions still
// pinned on the simulation ranks' endpoints. After Run has drained,
// a leak-free pipeline reports zero: every payload was released once
// its staging bucket pulled it.
func (p *Pipeline) PinnedRegions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, ep := range p.rankEps {
		total += ep.Regions()
	}
	return total
}

func (p *Pipeline) recordErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runErrs = append(p.runErrs, err)
}

func (p *Pipeline) storeResult(name string, step int, out any) {
	// Frames leave the process here: encoded into the image store and
	// replaced by references before the result map ever sees them.
	// persistFrames runs outside p.mu (the store has its own lock).
	out = p.persistFrames(name, step, out)
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.results[name]
	if !ok {
		m = make(map[int]any)
		p.results[name] = m
	}
	m[step] = out
}

// Report is the outcome of a pipeline run.
type Report struct {
	Steps      int
	Results    map[string]map[int]any // analysis -> step -> output
	Metrics    *metrics.Collector
	Net        netsim.Stats
	Resilience metrics.Resilience
	Overload   metrics.Overload
	Codec      dart.CodecStats
	Recovery   *RecoveryReport // nil unless Config.Recovery was set
	Warnings   []error         // non-fatal conditions (e.g. checkpoint fallback)
	Errs       []error
}

// Result returns the stored output of an analysis at a step.
func (r *Report) Result(analysis string, step int) any {
	m, ok := r.Results[analysis]
	if !ok {
		return nil
	}
	return m[step]
}

// Run executes the full pipeline for the given number of steps and
// blocks until the simulation has finished and every in-transit task
// has drained. Steps are numbered 1..steps. With recovery enabled,
// Run requires an empty journal (a fresh run); use Resume to continue
// an interrupted one.
func (p *Pipeline) Run(steps int) (*Report, error) {
	if p.rec != nil && len(p.rec.j.Records()) > 0 {
		return nil, fmt.Errorf("core: journal %s is not empty; use Resume to continue the interrupted run", p.rec.j.Dir())
	}
	return p.run(steps, false)
}

// Resume continues an interrupted recovery-enabled run: simulation
// state is rehydrated from the newest intact checkpoint at or below
// the last committed step, the gap is replayed silently, transfer-path
// codec base state is re-seeded, and live stepping restarts at the
// first uncommitted step — producing results bit-identical to the run
// that never crashed. Already committed tasks are never resubmitted;
// journaled-but-uncommitted ones are replayed exactly once.
func (p *Pipeline) Resume(steps int) (*Report, error) {
	if p.rec == nil {
		return nil, fmt.Errorf("core: Resume requires Config.Recovery")
	}
	return p.run(steps, true)
}

func (p *Pipeline) run(steps int, resume bool) (*Report, error) {
	if steps < 1 {
		return nil, fmt.Errorf("core: steps must be >= 1")
	}
	if p.tenant != "" {
		return nil, fmt.Errorf("core: tenant %q belongs to a scheduler; call Scheduler.Run", p.tenant)
	}
	tenants, ok := p.fab.begin()
	if !ok {
		return nil, fmt.Errorf("core: a pipeline runs once; build a new one to run again")
	}

	if p.rec != nil {
		// Every record was fsynced by its Append; Close only releases
		// journal.wal's descriptor, so its error changes nothing.
		defer p.rec.j.Close()
		p.rec.resume = resume
		p.rec.t0 = time.Now()
		if resume {
			if err := p.planResume(steps); err != nil {
				return nil, err
			}
		}
	}

	// Overload control: bound the task queue, size the credit account
	// to the most work the transit tier can hold (buckets draining plus
	// a full queue), reserve a floor per hybrid analysis, and give each
	// route its breaker and ladder.
	if p.ov != nil {
		p.fab.ds.SetQueueBound(p.ov.QueueBound)
		reservations := make(map[string]int)
		for _, name := range p.buildRoutes() {
			reservations[name] = p.ov.Reserve
		}
		total := p.ov.Credits
		if total <= 0 {
			total = p.cfg.Buckets + p.ov.QueueBound
		}
		// Reservations only make sense when the supply can cover them
		// with headroom to spare; a tiny account degrades to one shared
		// pool rather than failing or starving every route.
		if p.ov.Reserve*len(reservations) >= total {
			reservations = nil
		}
		if err := p.fab.ds.EnableCredits(total, reservations); err != nil {
			return nil, err
		}
	}

	p.fab.run(tenants, steps, nil)
	return p.finishReport(steps)
}

// finishReport folds the run's counters into the collector and builds
// the final Report. Called once per pipeline, after its simulation has
// finished and the drain has delivered every final result.
func (p *Pipeline) finishReport(steps int) (*Report, error) {
	p.col.RecordResilience(p.resilience())
	if p.ov != nil {
		var o metrics.Overload
		if c := p.fab.ds.Credits(); c != nil {
			o.CreditsDenied = c.Denied()
		}
		o.BreakerOpens, o.BreakerTransitions = p.breakerTotals()
		p.col.RecordOverload(o)
	}

	var recRep *RecoveryReport
	if p.rec != nil {
		recRep = p.rec.report()
		if p.rec.j.Killed() {
			// The injected crash is the run's outcome: everything after
			// the kill point is non-durable and Resume will redo it.
			p.recordErr(fmt.Errorf("core: injected crash: %w", recovery.ErrKilled))
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &Report{
		Steps:      steps,
		Results:    p.results,
		Metrics:    p.col,
		Net:        p.fab.net.Stats(),
		Resilience: p.col.Resilience(),
		Overload:   p.col.Overload(),
		Codec:      p.fab.dart.CodecStats(),
		Recovery:   recRep,
		Warnings:   append([]error{}, p.warns...),
		Errs:       append([]error{}, p.runErrs...),
	}
	if len(rep.Errs) > 0 {
		return rep, rep.Errs[0]
	}
	return rep, nil
}

// installHandlers registers the analyses' in-transit handlers on the
// staging area under this pipeline's tenant ("" outside a scheduler).
// Streaming stages take precedence when an analysis implements both
// kinds.
func (p *Pipeline) installHandlers() {
	for _, a := range p.analyses {
		if sh, ok := a.(StreamingHybridAnalysis); ok {
			p.fab.area.HandleStreamT(p.tenant, sh.Name(), func(task dataspaces.Task, in <-chan staging.StreamInput) (any, error) {
				return sh.InTransitStream(task.Step, in)
			})
			continue
		}
		if h, ok := a.(HybridAnalysis); ok {
			p.fab.area.HandleT(p.tenant, h.Name(), func(task dataspaces.Task, data [][]byte) (any, error) {
				return h.InTransit(task.Step, data)
			})
		}
	}
}

// handleResult folds one final in-transit result into the pipeline:
// timeline spans, breaker/quarantine bookkeeping, result storage, transit
// metrics, and drain accounting. Only the fabric's drain goroutine
// calls it.
func (p *Pipeline) handleResult(res staging.Result) {
	p.fab.timeline(bucketLane(res.Bucket), res.Start, res.End, "%s@%d", res.Task.Analysis, res.Task.Step)
	p.observeResult(res)
	if p.quar != nil {
		if res.Task.Probe {
			p.quar.RecordProbe(p.tenant, res.Task.Analysis, res.Err == nil)
		} else {
			p.quar.Settle(p.tenant, res.Task.Analysis, res.Err == nil)
		}
	}
	switch {
	case res.DeadLetter:
		// The task's data already left the ranks, so no in-situ
		// fallback is possible; the step is explicitly degraded
		// rather than silently missing or a hard failure.
		p.storeResult(res.Task.Analysis, res.Task.Step,
			Degraded{Reason: res.Err.Error()})
		p.col.AddDegradedStep()
		p.fab.mark(bucketLane(res.Bucket), res.End, "dead-letter %s@%d", res.Task.Analysis, res.Task.Step)
	case res.Err != nil:
		p.recordErr(fmt.Errorf("core: in-transit %s step %d: %w",
			res.Task.Analysis, res.Task.Step, res.Err))
	case res.Task.Shaped > 0:
		// A shaped step completed on the transit path, but at
		// reduced fidelity: mark it so consumers can tell it from
		// a full-quality result.
		p.storeResult(res.Task.Analysis, res.Task.Step, Degraded{
			Reason: fmt.Sprintf("shaped: coarser payload (level %d)", res.Task.Shaped),
			Value:  res.Output,
		})
	default:
		p.storeResult(res.Task.Analysis, res.Task.Step, res.Output)
	}
	// The serialized (sum) modeled pull time is the right
	// "data movement time": a single bucket's ingress link
	// admits one RDMA stream's worth of bandwidth at a time.
	p.col.RecordTransit(res.Task.Analysis, res.MoveModeledSum, res.MoveWall,
		res.BytesMoved, res.ComputeWall)
	p.mu.Lock()
	p.completed++
	p.mu.Unlock()
	p.maybeCommitSteps()
}

// bucketLane names a staging bucket's timeline lane.
func bucketLane(id int) string { return "bucket-" + strconv.Itoa(id) }

// drained reports whether the tenant is finished with the task queue:
// its simulation has stepped to the end and every task it submitted has
// come back as a final Result.
func (p *Pipeline) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simDone && p.completed == p.submitted
}

// buildRoutes gives every hybrid analysis its breaker and ladder and
// returns the route names, in registration order. Requires p.ov.
func (p *Pipeline) buildRoutes() []string {
	var names []string
	for _, a := range p.analyses {
		if _, ok := a.(hybridStage); ok {
			names = append(names, a.Name())
			// Route insertion is p.mu-guarded because scrape-time
			// metric functions iterate p.routes concurrently.
			p.mu.Lock()
			p.routes[a.Name()] = &routeState{
				breaker: overload.NewBreaker(p.ov.Breaker),
				ladder:  overload.NewLadder(p.ov.Ladder),
			}
			p.mu.Unlock()
		}
	}
	return names
}

// breakerTotals sums breaker trips and state transitions over the
// tenant's routes. The caller holds p.mu or runs after the run.
func (p *Pipeline) breakerTotals() (opens, transitions int64) {
	for _, rs := range p.routes {
		opens += rs.breaker.Opens()
		transitions += rs.breaker.Transitions()
	}
	return opens, transitions
}

// resilience snapshots the failure counters across all layers. Under a
// scheduler the transport counters come from the tenant's own rank
// endpoints (owner-attributed), while queue/bucket counters stay
// fabric-wide: buckets are shared, so requeues and crashes are not a
// per-tenant quantity.
func (p *Pipeline) resilience() metrics.Resilience {
	fs := p.fab.dart.Stats()
	if p.tenant != "" {
		var retries, crc int64
		p.mu.Lock()
		for _, ep := range p.rankEps {
			s := ep.Stats()
			retries += s.Retries
			crc += s.ChecksumFailures
		}
		p.mu.Unlock()
		fs.Retries, fs.ChecksumFailures = retries, crc
	}
	as := p.fab.area.Resilience()
	return metrics.Resilience{
		Faults:           p.fab.net.Stats().Faulted,
		Retries:          fs.Retries,
		ChecksumFailures: fs.ChecksumFailures,
		Requeues:         as.Requeues,
		Crashes:          as.Crashes,
		DeadLetters:      as.DeadLetters,
	}
}

// observeResult feeds one final in-transit result into the route's
// breaker and the shared latency estimator. Only the drain goroutine
// calls it. Task outcomes move a breaker out of Closed only — a stale
// in-flight result cannot flip a route the prober is recovering.
func (p *Pipeline) observeResult(res staging.Result) {
	if p.ov == nil {
		return
	}
	rs := p.routes[res.Task.Analysis]
	if rs == nil {
		return
	}
	now := time.Now()
	prev := rs.breaker.State()
	if res.Err != nil {
		rs.breaker.RecordFailure(now)
	} else {
		lat := res.End.Sub(res.Start)
		rs.breaker.RecordSuccess(now, lat)
		p.est.ObserveLatency(lat)
	}
	p.markBreaker(res.Task.Analysis, prev, rs.breaker.State(), res.Task.Step)
}

// markBreaker records a route's breaker transition on the timeline and
// as an admission-category event (nothing without a plane).
func (p *Pipeline) markBreaker(name string, prev, cur overload.BreakerState, step int) {
	if prev == cur {
		return
	}
	if pl := p.fab.plane; pl != nil {
		p.fab.mark("overload", time.Now(), "%s breaker %s→%s@%d", name, prev, cur, step)
		attrs := append([]obs.Attr{
			obs.Str("analysis", name),
			obs.Str("from", prev.String()),
			obs.Str("to", cur.String()),
			obs.Int("step", step),
		}, p.labels...)
		pl.Recorder().Event(0, obs.CatAdmit, "overload", "breaker.transition", time.Now(), attrs...)
	}
}

// observeAdmit records one admission verdict: the per-level counter
// plus an admission event carrying the ladder's reasoning.
func (p *Pipeline) observeAdmit(step int, d admitDecision) {
	pl := p.fab.plane
	if pl == nil {
		return
	}
	if c := p.admitCtr[d.Level]; c != nil {
		c.Inc()
	}
	attrs := append([]obs.Attr{
		obs.Str("analysis", d.Name),
		obs.Str("level", d.Level.String()),
		obs.Int("step", step),
		obs.Bool("credited", d.Credited),
		obs.Str("reason", d.Reason),
	}, p.labels...)
	pl.Recorder().Event(0, obs.CatAdmit, "overload", "admit", time.Now(), attrs...)
}

// probeRoute runs the half-open health probe: a tiny Get against the
// staging area's probe region. The verdict uses the *modeled* transfer
// duration against ProbeLatencyMax, so a browned-out tier — slow but
// delivering — fails the probe even though the wall time of a 16-byte
// pull is negligible either way. The wall time is additionally bounded
// by a real deadline so a stalled fabric cannot block admission.
func (p *Pipeline) probeRoute(ep *dart.Endpoint) bool {
	deadline := time.Now().Add(p.ov.ProbeLatencyMax + 50*time.Millisecond)
	data, modeled, err := ep.GetDeadline(p.fab.area.ProbeHandle(), deadline)
	if err != nil {
		return false
	}
	bufpool.Put(data)
	return modeled <= p.ov.ProbeLatencyMax
}

// admitStep is rank 0's admission pass for one step: for every hybrid
// analysis due, consult the route's breaker (running the half-open
// probe when asked), fold the pressure signals into the admission
// ladder, and acquire a transit credit for levels that will submit.
// A route that cannot get a credit floors at the in-situ rung for the
// step — admission never blocks and never over-commits the tier.
func (p *Pipeline) admitStep(ep *dart.Endpoint, step int) []admitDecision {
	var out []admitDecision
	stepMax := overload.LevelFull
	credits := p.fab.ds.Credits()
	p.est.ObserveQueue(float64(p.queueDepth()))
	for _, a := range p.analyses {
		an, ok := a.(hybridStage)
		if !ok || !due(a, step) {
			continue
		}
		name := an.Name()
		// Quarantine outranks the breaker: a poisoned (tenant, analysis)
		// route fails in the handler, not in transit, so transit-health
		// probing cannot clear it. A rejected route floors at the
		// in-situ rung without touching breaker, ladder, or credits; a
		// half-open route sends exactly one full-fidelity probe task.
		if p.quar != nil {
			switch p.quar.Allow(p.tenant, name) {
			case overload.QReject:
				d := admitDecision{Name: name, Level: overload.LevelInSitu,
					Reason: "in-situ: route quarantined"}
				p.observeAdmit(step, d)
				out = append(out, d)
				stepMax = max(stepMax, d.Level)
				continue
			case overload.QProbe:
				d := admitDecision{Name: name, Level: overload.LevelFull,
					Reason: "full: quarantine half-open probe", Probe: true}
				if credits != nil && !credits.Acquire(p.creditAccount(name)) {
					// No capacity to probe with: the attempt is spent, the
					// route stays quarantined until the next probe window.
					p.quar.RecordProbe(p.tenant, name, false)
					d = admitDecision{Name: name, Level: overload.LevelInSitu,
						Reason: "in-situ: quarantine probe denied credit"}
				} else if credits != nil {
					d.Credited = true
				}
				p.observeAdmit(step, d)
				out = append(out, d)
				stepMax = max(stepMax, d.Level)
				continue
			}
		}
		rs := p.routes[name]
		now := time.Now()
		prev := rs.breaker.State()
		if rs.breaker.Allow(now) == overload.Probe {
			ok := p.probeRoute(ep)
			rs.breaker.RecordProbe(time.Now(), ok)
		}
		cur := rs.breaker.State()
		p.markBreaker(name, prev, cur, step)

		sig := overload.Signals{
			BreakerOpen:      cur != overload.Closed,
			CreditsExhausted: credits.Exhausted(p.creditAccount(name)),
			QueueDepth:       p.est.Queue(),
			Latency:          p.est.Latency(),
		}
		level := rs.ladder.Observe(sig)
		reason := fmt.Sprintf("%s: breaker %s, queue %.1f, latency %s",
			level, cur, sig.QueueDepth, sig.Latency.Round(time.Microsecond))
		// Analyses whose payload exposes no float tail skip the
		// quantized rung (the delta rung applies to every route: delta
		// frames are exact and self-contained).
		if level == overload.LevelQuantized {
			if _, quantizes := a.(QuantizableStage); !quantizes {
				level = overload.LevelShaped
				reason = "shaped: no quantizable stage; " + reason
			}
		}
		// Analyses without a shaped stage skip that rung.
		if level == overload.LevelShaped {
			if _, shapes := a.(ShapedStage); !shapes {
				level = overload.LevelInSitu
				reason = "in-situ: no shaped stage; " + reason
			}
		}
		credited := false
		if level <= overload.LevelShaped {
			if credits.Acquire(p.creditAccount(name)) {
				credited = true
			} else {
				level = overload.LevelInSitu
				reason = "in-situ: no transit credit; " + reason
			}
		}
		if level != rs.lastLevel {
			p.fab.mark("overload", time.Now(), "%s ladder %s→%s@%d", name, rs.lastLevel, level, step)
		}
		rs.lastLevel = level
		d := admitDecision{Name: name, Level: level, Reason: reason, Credited: credited}
		p.observeAdmit(step, d)
		out = append(out, d)
		stepMax = max(stepMax, level)
	}
	// The worst level of this pass is the tenant's pressure signal for
	// the scheduler's autoscaler (atomic: the drain goroutine reads it).
	p.curLevel.Store(int64(stepMax))
	return out
}

// creditAccount maps a route to its flow-control account: under a
// scheduler every route of a tenant draws from the tenant's account
// (the bulkhead); standalone pipelines keep per-analysis accounts.
func (p *Pipeline) creditAccount(name string) string {
	if p.tenant != "" {
		return p.tenant
	}
	return name
}

// queueDepth is the pipeline's own backlog: its tenant queue under a
// scheduler, the global queue otherwise.
func (p *Pipeline) queueDepth() int {
	if p.tenant != "" {
		return p.fab.ds.QueueDepthT(p.tenant)
	}
	return p.fab.ds.QueueDepth()
}

// Credits returns the transit tier's credit account (nil unless
// overload control is enabled).
func (p *Pipeline) Credits() *dataspaces.Credits { return p.fab.ds.Credits() }

// BreakerStates returns each hybrid route's current breaker position
// (empty unless overload control is enabled).
func (p *Pipeline) BreakerStates() map[string]overload.BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]overload.BreakerState, len(p.routes))
	for name, rs := range p.routes {
		out[name] = rs.breaker.State()
	}
	return out
}

// codecSpec resolves the configured transfer-path codec for a route:
// the route's own entry, then the "*" fallback, then identity.
func (p *Pipeline) codecSpec(name string) codec.Spec {
	if s, ok := p.cfg.Codecs[name]; ok {
		return s
	}
	if s, ok := p.cfg.Codecs["*"]; ok {
		return s
	}
	return codec.Spec{}
}

// ladderSpec maps an admission level onto the codec spec for the step:
// the delta and quantized rungs override the configured codec, other
// levels keep it. A quantized rung inherits the route's configured
// error bound when the config already selects quantize.
func ladderSpec(level overload.Level, cfg codec.Spec) codec.Spec {
	switch level {
	case overload.LevelDelta:
		return codec.Spec{ID: codec.Delta}
	case overload.LevelQuantized:
		q := codec.Spec{ID: codec.Quantize}
		if cfg.ID == codec.Quantize {
			q.MaxError = cfg.MaxError
		}
		return q
	}
	return cfg
}

// registerPayload encodes one intermediate payload under spec and pins
// the result for the staging tier to pull. Lossy codecs need the
// payload's float-tail offset from the analysis; when the analysis
// cannot provide one for this payload, the spec downgrades to delta —
// exact and self-contained — rather than reinterpreting opaque bytes
// as floats. When the encode produced a frame, the producer's marshal
// buffer is recycled immediately (the frame is what stays pinned);
// identity registrations keep the payload pinned exactly as before.
func (p *Pipeline) registerPayload(ep *dart.Endpoint, an hybridStage, spec codec.Spec, key string, step int, payload []byte) (dart.MemHandle, error) {
	floatOff := 0
	if spec.ID == codec.Quantize || spec.ID == codec.Subsample {
		off := -1
		if qa, ok := an.(QuantizableStage); ok {
			if o, ok2 := qa.PayloadFloatTail(payload); ok2 {
				off = o
			}
		}
		if off < 0 {
			spec = codec.Spec{ID: codec.Delta}
		} else {
			floatOff = off
		}
	}
	er, err := ep.RegisterMemEncoded(spec, key, step, payload, floatOff)
	if err != nil {
		return dart.MemHandle{}, err
	}
	if er.Codec != codec.Identity {
		bufpool.Put(payload)
	}
	return er.Handle, nil
}

// discardStaged disposes of a task the transit tier did not take: the
// pinned regions are reclaimed and their buffers recycled exactly once
// — the same linear-ownership rule as the dead-letter path — and the
// flow-control credit is returned.
func (p *Pipeline) discardStaged(name string, inputs []dataspaces.Descriptor, dec admitDecision) {
	for _, in := range inputs {
		p.fab.releaseHandle(in)
	}
	if dec.Credited {
		if c := p.fab.ds.Credits(); c != nil {
			c.Release(p.creditAccount(name))
		}
	}
}

// shedSubmitted disposes of a step whose intermediate payloads were
// already produced and pinned when submission failed: the transit tier
// refused the task (bounded queue full) or the service was gone. The
// staged inputs are discarded and the step is stored as an explicit
// shed marker instead of leaking regions and vanishing.
func (p *Pipeline) shedSubmitted(name string, step int, inputs []dataspaces.Descriptor, dec admitDecision, cause error) {
	p.discardStaged(name, inputs, dec)
	// A credited quarantine probe that never reached the queue is a
	// failed probe: the route stays quarantined until the next window.
	if dec.Probe && p.quar != nil {
		p.quar.RecordProbe(p.tenant, name, false)
	}
	p.storeResult(name, step, Degraded{Reason: fmt.Sprintf("shed: %v", cause)})
	p.col.AddShedStep()
	p.fab.mark("overload", time.Now(), "%s shed at submit@%d", name, step)
	if !errors.Is(cause, dataspaces.ErrQueueFull) && !errors.Is(cause, overload.ErrQuarantined) {
		// Backpressure and the quarantine guard are expected; anything
		// else is a real error too.
		p.recordErr(fmt.Errorf("core: submit %s step %d: %w", name, step, cause))
	}
}

// hybridDue reports whether any hybrid analysis runs at this step.
func (p *Pipeline) hybridDue(step int) bool {
	for _, a := range p.analyses {
		if _, ok := a.(hybridStage); ok && due(a, step) {
			return true
		}
	}
	return false
}

// probeStep is rank 0's admission pass without overload control: one
// pull of the staging area's tiny probe region under the step budget
// decides every due hybrid route together. A healthy path answers in
// microseconds; a partitioned or saturated one fails (after DART's
// retries), which floors the routes at the in-situ rung before any
// intermediate data is produced or pinned.
func (p *Pipeline) probeStep(ep *dart.Endpoint, step int) []admitDecision {
	level, reason := overload.LevelFull, ""
	data, _, err := ep.GetDeadline(p.fab.area.ProbeHandle(), time.Now().Add(p.cfg.StepBudget))
	if err != nil {
		level, reason = overload.LevelInSitu, fmt.Sprintf("transit probe: %v", err)
		p.fab.mark("sim", time.Now(), "degraded@%d", step)
	} else {
		bufpool.Put(data)
	}
	var out []admitDecision
	for _, a := range p.analyses {
		if _, ok := a.(hybridStage); ok && due(a, step) {
			d := admitDecision{Name: a.Name(), Level: level, Reason: reason}
			p.observeAdmit(step, d)
			out = append(out, d)
		}
	}
	return out
}

// runFallback executes one degraded hybrid analysis step fully
// in-situ. Analyses without a fallback still get an explicit Degraded
// marker so the step is never silently lost.
func (p *Pipeline) runFallback(ctx *Ctx, r *comm.Rank, an hybridStage, step int, reason string) {
	var out any
	var err error
	fb, hasFB := an.(InSituFallback)
	t := time.Now()
	if hasFB {
		out, err = fb.RunFallback(ctx)
	}
	p.col.RecordInSitu(an.Name(), step, time.Since(t))
	if err != nil {
		p.recordErr(fmt.Errorf("core: in-situ fallback %s step %d rank %d: %w", an.Name(), step, r.ID(), err))
		return
	}
	if r.ID() == 0 {
		p.storeResult(an.Name(), step, Degraded{Reason: reason, Value: out})
	}
}
