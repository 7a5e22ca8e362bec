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
	"insitu/internal/obs"
	"insitu/internal/overload"
	"insitu/internal/sim"
	"insitu/internal/staging"
)

// Pipeline is one tenant of a scheduler's transit fabric: a simulation,
// the analyses registered on it, its admission and recovery planes, and
// its results (the producer half of the paper's Fig. 5).
// Scheduler.AddTenant builds it; NewPipeline builds the scheduler too
// and returns its lone tenant.
type Pipeline struct {
	cfg   TenantConfig
	sched *Scheduler

	sim *sim.Sim
	col *metrics.Collector

	analyses []Analysis

	// frameVars maps a FrameAnalysis name to its store variable.
	// Written only by Register (before Run), read by persistFrames.
	frameVars map[string]string

	// Overload-control plane (nil/empty for an unnamed tenant whose
	// TenantConfig.Overload is nil).
	ov     *overload.Config
	est    *overload.Estimator
	routes map[string]*routeState

	// Recovery plane (nil when TenantConfig.Recovery is nil).
	rec *recState

	// What AddTenant derives from the tenant's name: prefix qualifies
	// its endpoint names and codec keys, labels is the tenant=<name>
	// attribute its metric families and admission events carry (both
	// empty for the unnamed tenant), and quar is the scheduler's
	// poison-route quarantine or, unnamed, one that never trips.
	tenant string
	prefix string
	labels []obs.Attr
	quar   *overload.Quarantine
	// curLevel is the worst ladder level of the latest admission pass,
	// exported for the autoscaler.
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

// Register adds an analysis; all registrations must happen before Run.
func (p *Pipeline) Register(a Analysis) {
	p.analyses = append(p.analyses, a)
	if fa, ok := a.(FrameAnalysis); ok {
		p.frameVars[a.Name()] = fa.FrameVar()
	}
}

// Sim returns the simulation description.
func (p *Pipeline) Sim() *sim.Sim { return p.sim }

// Run executes the full pipeline for the given number of steps and
// blocks until the simulation has finished and every in-transit task
// has drained. Steps are numbered 1..steps. It is Scheduler.Run for a
// tenant that has the fabric to itself, and an error for one with
// siblings. With recovery enabled, Run requires an empty journal (a
// fresh run); use Resume to continue an interrupted one.
func (p *Pipeline) Run(steps int) (*Report, error) { return p.run(steps, false) }

// Resume continues an interrupted recovery-enabled run: simulation
// state is rehydrated from the newest intact checkpoint at or below
// the last committed step, the gap is replayed silently, transfer-path
// codec base state is re-seeded, and live stepping restarts at the
// first uncommitted step — producing results bit-identical to the run
// that never crashed. Already committed tasks are never resubmitted;
// journaled-but-uncommitted ones are replayed exactly once.
func (p *Pipeline) Resume(steps int) (*Report, error) { return p.run(steps, true) }

func (p *Pipeline) run(steps int, resume bool) (*Report, error) {
	reps, err := p.sched.run(steps, p, resume)
	return reps[p.tenant], err
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

// installHandlers registers the analyses' in-transit handlers on the
// staging area under this pipeline's tenant ("" outside a scheduler).
// Streaming stages take precedence when an analysis implements both
// kinds.
func (p *Pipeline) installHandlers() {
	for _, a := range p.analyses {
		if sh, ok := a.(StreamingHybridAnalysis); ok {
			p.sched.area.HandleStreamT(p.tenant, sh.Name(), func(task dataspaces.Task, in <-chan staging.StreamInput) (any, error) {
				return sh.InTransitStream(task.Step, in)
			})
			continue
		}
		if h, ok := a.(HybridAnalysis); ok {
			p.sched.area.HandleT(p.tenant, h.Name(), func(task dataspaces.Task, data [][]byte) (any, error) {
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
	p.sched.timeline(bucketLane(res.Bucket), res.Start, res.End, "%s@%d", res.Task.Analysis, res.Task.Step)
	p.observeResult(res)
	if res.Task.Probe {
		p.quar.RecordProbe(p.tenant, res.Task.Analysis, res.Err == nil)
	} else {
		p.quar.Settle(p.tenant, res.Task.Analysis, res.Err == nil)
	}
	switch {
	case res.DeadLetter:
		// The task's data already left the ranks, so no in-situ
		// fallback is possible; the step is explicitly degraded
		// rather than silently missing or a hard failure.
		p.storeResult(res.Task.Analysis, res.Task.Step,
			Degraded{Reason: res.Err.Error()})
		p.col.AddDegradedStep()
		p.sched.mark(bucketLane(res.Bucket), res.End, "dead-letter %s@%d", res.Task.Analysis, res.Task.Step)
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

// resilience snapshots the failure counters across all layers. A lone
// tenant owns the fabric's transport counters, its health probes'
// included; with siblings they come from the tenant's own rank
// endpoints (owner-attributed). Queue/bucket counters stay fabric-wide:
// buckets are shared, so requeues and crashes are not a per-tenant
// quantity.
func (p *Pipeline) resilience(siblings bool) metrics.Resilience {
	fs := p.sched.dart.Stats()
	if siblings {
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
	as := p.sched.area.Resilience()
	return metrics.Resilience{
		Faults:           p.sched.net.Stats().Faulted,
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
	rs := p.routes[res.Task.Analysis] // none without an admission plane
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

// Credits returns the transit tier's credit account (nil unless
// overload control is enabled).
func (p *Pipeline) Credits() *dataspaces.Credits { return p.sched.ds.Credits() }

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
func (p *Pipeline) discardStaged(inputs []dataspaces.Descriptor, dec admitDecision) {
	for _, in := range inputs {
		p.sched.releaseHandle(in)
	}
	if dec.Account != "" {
		p.sched.ds.Credits().Release(dec.Account)
	}
}

// shedSubmitted disposes of a step whose intermediate payloads were
// already produced and pinned when submission failed: the transit tier
// refused the task (bounded queue full) or the service was gone. The
// staged inputs are discarded and the step is stored as an explicit
// shed marker instead of leaking regions and vanishing.
func (p *Pipeline) shedSubmitted(name string, step int, inputs []dataspaces.Descriptor, dec admitDecision, cause error) {
	p.discardStaged(inputs, dec)
	// A credited quarantine probe that never reached the queue is a
	// failed probe: the route stays quarantined until the next window.
	if dec.Probe {
		p.quar.RecordProbe(p.tenant, name, false)
	}
	p.storeResult(name, step, Degraded{Reason: fmt.Sprintf("shed: %v", cause)})
	p.col.AddShedStep()
	p.sched.mark("overload", time.Now(), "%s shed at submit@%d", name, step)
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
