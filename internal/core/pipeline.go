package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
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

	// routes holds the registered analyses in registration order and
	// byName indexes them for the drain goroutine, whose results arrive
	// keyed by analysis name. Written only by Register (before Run).
	routes []*route
	byName map[string]*route

	// Overload-control plane (nil for an unnamed tenant whose
	// TenantConfig.Overload is nil); queue is the task-queue depth EWMA
	// the admission ladder reads, observed and read by rank 0 only.
	ov    *overload.Config
	queue overload.EWMA

	// Recovery plane (nil when TenantConfig.Recovery is nil).
	rec *recState

	// walk is the run's step list and warns the checkpoints its plan
	// passed over, with why: both fixed before the rank loops start.
	walk  []int
	warns []error

	// What AddTenant derives from the tenant's name: prefix qualifies
	// its endpoint names and codec keys, labels is the tenant=<name>
	// attribute its metric families and admission events carry (both
	// empty for the unnamed tenant).
	tenant string
	prefix string
	labels []obs.Attr
	// curLevel is the worst ladder level of the latest admission pass,
	// exported for the autoscaler.
	curLevel atomic.Int64

	mu      sync.Mutex
	runErrs []error
	rankEps []*dart.Endpoint // this tenant's rank endpoints, by rank

	// stepWall is the step wall-latency histogram, one sample per rank
	// per step (nil until the plane is attached).
	stepWall *obs.Histogram

	// Step-outcome tallies, each counted once where it happens: rank 0's
	// admission verdicts by level (observeAdmit) and transit credits it
	// was refused (acquireCredit), steps shed at submit (shedSubmitted)
	// and dead-lettered tasks (handleResult). The Report, the metric
	// families and s3dpipe all read these.
	verdicts      [overload.LevelShed + 1]atomic.Int64
	creditsDenied atomic.Int64
	shedAtSubmit  atomic.Int64
	deadLetters   atomic.Int64

	// Drain accounting: the queue closes once the simulation has
	// finished AND every successfully submitted task has produced its
	// one final Result (requeued attempts emit nothing until the task
	// completes or dead-letters). This replaces an upfront expected
	// count, which cannot anticipate degraded steps or requeues.
	submitted int64
	completed int64
	simDone   bool
}

// route is one registered analysis as the pipeline runs it — the
// paper's unit of work, an in-situ stage and (for a hybrid route) an
// in-transit stage joined by DART/DataSpaces. Register resolves
// everything the Analysis value and the tenant's config say about it
// once, so the Fig. 5 stages are loops over routes with no name lookup
// and no type assertion. A route is in-situ (stage nil) or hybrid
// (stage set, plus whichever optional faces the analysis implements).
type route struct {
	name  string
	every int // cadence in steps, >= 1

	// inSitu completes a step on the ranks: an in-situ route's
	// RunInSitu, or a hybrid route's RunFallback (its in-situ rung)
	// when implemented.
	inSitu func(*Ctx) (any, error)
	stage  HybridAnalysis   // the in-situ half of a hybrid route; nil for an in-situ route
	shaped ShapedStage      // the ladder's shaped rung, when implemented
	quant  QuantizableStage // lossy codecs and the quantized rung, when implemented

	frameVar string     // store variable of a FrameAnalysis ("": results are not frames)
	spec     codec.Spec // configured transfer-path codec: own entry, then "*", then identity

	// Admission state of a hybrid route whose tenant has a plane (nil
	// otherwise), and the route's quarantine: the poison breaker of a
	// named tenant's hybrid route (nil otherwise).
	breaker *overload.Breaker
	ladder  *overload.Ladder
	poison  *overload.Breaker

	// results holds the stored outputs by step (nil until the first);
	// guarded by Pipeline.mu.
	results map[int]any
}

// due reports whether the route runs at a step (steps are 1-based;
// cadence n means steps n, 2n, ...).
func (rt *route) due(step int) bool { return step%rt.every == 0 }

// Register adds an analysis; all registrations must happen before Run.
// It resolves the analysis into the pipeline's route record and installs
// a hybrid analysis's in-transit handler on the staging area. The name
// keys the route's results, descriptors, tasks and codec streams, so a
// second analysis with the same Name() is refused, as is one that is
// neither in-situ nor hybrid. The error is returned and also filed on
// the run: a caller that drops it still sees Run fail.
func (p *Pipeline) Register(a Analysis) error {
	rt := &route{name: a.Name(), every: max(a.Every(), 1)}
	if _, dup := p.byName[rt.name]; dup {
		return p.refuse(fmt.Errorf("core: analysis %q is already registered; route names must be unique within a tenant", rt.name))
	}
	switch an := a.(type) {
	case InSituAnalysis:
		rt.inSitu = an.RunInSitu
	case HybridAnalysis:
		rt.stage = an
		rt.shaped, _ = a.(ShapedStage)
		rt.quant, _ = a.(QuantizableStage)
		if fb, ok := a.(InSituFallback); ok {
			rt.inSitu = fb.RunFallback
		}
		var ok bool
		if rt.spec, ok = p.cfg.Codecs[rt.name]; !ok {
			rt.spec = p.cfg.Codecs["*"]
		}
		if p.ov != nil {
			rt.breaker = overload.NewBreaker(p.ov.Breaker)
			rt.ladder = overload.NewLadder(p.ov.Ladder)
		}
		if p.tenant != "" {
			rt.poison = overload.NewPoisonBreaker(p.sched.cfg.Quarantine)
		}
		p.sched.area.HandleT(p.tenant, rt.name, func(task dataspaces.Task, data [][]byte) (any, error) {
			return an.InTransit(task.Step, data)
		})
	default:
		return p.refuse(fmt.Errorf("core: analysis %s implements neither InSituAnalysis nor HybridAnalysis", rt.name))
	}
	if fa, ok := a.(FrameAnalysis); ok {
		rt.frameVar = fa.FrameVar()
	}
	// Scrape-time metric functions iterate p.routes under p.mu.
	p.mu.Lock()
	p.routes = append(p.routes, rt)
	p.byName[rt.name] = rt
	p.mu.Unlock()
	return nil
}

// refuse files a Register error on the run and returns it.
func (p *Pipeline) refuse(err error) error {
	p.recordErr(err)
	return err
}

// Sim returns the simulation description.
func (p *Pipeline) Sim() *sim.Sim { return p.sim }

// Run executes the full pipeline for the given number of steps and
// blocks until the simulation has finished and every in-transit task
// has drained. Steps are numbered 1..steps. It is Scheduler.Run for a
// tenant that has the fabric to itself, and ErrNotAlone for one with
// siblings. With recovery enabled, Run requires an empty journal (a
// fresh run); use Resume to continue an interrupted one.
func (p *Pipeline) Run(steps int) (*Report, error) { return p.run(steps, RunFresh) }

// Resume continues an interrupted recovery-enabled run: simulation
// state is restored from the newest usable checkpoint at or below the
// last committed step (a checkpoint passed over is a Report warning),
// the gap is re-stepped silently, codec base state is re-seeded, and
// live stepping restarts at the first uncommitted step — producing
// results bit-identical to the run that never crashed. Already
// committed tasks are never resubmitted; journaled-but-uncommitted ones
// are replayed exactly once.
func (p *Pipeline) Resume(steps int) (*Report, error) { return p.run(steps, RunResume) }

// Replay runs the registered routes over the checkpoints a
// recovery-enabled run left in its journal (post-hoc analysis), in step
// order, passing over with a Report warning any that Resume would. It
// reads and checks every checkpoint before the first step and holds
// each until its step, whose sim stage restores it on every rank bit
// for bit instead of stepping; Replay writes nothing. Routes that read
// only the step's fields (statistics, topology, viz) reproduce the
// coupled run's results; stateful ones (tracking, auto-correlation)
// start from empty per-rank state. It refuses with ErrNoRecovery,
// ErrNotAlone or ErrNoCheckpoint (matching ErrDecompMismatch too for
// checkpoints cut for another decomposition).
func (p *Pipeline) Replay(steps int) (*Report, error) { return p.run(steps, RunReplay) }

func (p *Pipeline) run(steps int, mode RunMode) (*Report, error) {
	reps, err := p.sched.run(steps, p, mode)
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

func (p *Pipeline) storeResult(rt *route, step int, out any) {
	// Frames leave the process here: encoded into the image store and
	// replaced by references before the result map ever sees them.
	// persistFrames runs outside p.mu (the store has its own lock).
	out = p.persistFrames(rt, step, out)
	p.mu.Lock()
	defer p.mu.Unlock()
	if rt.results == nil {
		rt.results = make(map[int]any)
	}
	rt.results[step] = out
}

// handleResult folds one final in-transit result into its route:
// credit settlement, both breakers' bookkeeping, result storage,
// transit metrics, and drain accounting. Only the fabric's drain
// goroutine calls it.
func (p *Pipeline) handleResult(res *staging.Result) {
	// Every final result (success, handler error, dead letter) passes
	// here once, so the task's credit settles exactly once.
	p.releaseCredit(res.Task.Account)
	rt, task := p.byName[res.Task.Analysis], res.Task
	p.observeResult(rt, res)
	switch {
	case res.DeadLetter:
		// The task's data already left the ranks, so no in-situ
		// fallback is possible; the step is explicitly degraded
		// rather than silently missing or a hard failure.
		p.storeResult(rt, task.Step, Degraded{Reason: res.Err.Error()})
		p.deadLetters.Add(1)
	case res.Err != nil:
		p.recordErr(fmt.Errorf("core: in-transit %s step %d: %w", rt.name, task.Step, res.Err))
	case task.Shaped:
		// A shaped step completed on the transit path, but at
		// reduced fidelity: mark it so consumers can tell it from
		// a full-quality result.
		p.storeResult(rt, task.Step, Degraded{Reason: "shaped: coarser payload", Value: res.Output})
	default:
		p.storeResult(rt, task.Step, res.Output)
	}
	p.col.RecordTransit(rt.name, res.MoveModeledSum, res.MoveWall,
		res.BytesMoved, res.ComputeWall)
	p.mu.Lock()
	p.completed++
	p.mu.Unlock()
	p.maybeCommitSteps()
}

// drained reports whether the tenant is finished with the task queue:
// its simulation has stepped to the end and every task it submitted has
// come back as a final Result.
func (p *Pipeline) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simDone && p.completed == p.submitted
}

// breakerTotals sums breaker trips and state transitions over the
// tenant's routes. The caller holds p.mu or runs after the run.
func (p *Pipeline) breakerTotals() (opens, transitions int64) {
	for _, rt := range p.routes {
		if rt.breaker != nil {
			opens += rt.breaker.Opens()
			transitions += rt.breaker.Transitions()
		}
	}
	return opens, transitions
}

// stepsShed counts the steps dropped with a shed marker: shed verdicts
// plus submit-time sheds.
func (p *Pipeline) stepsShed() int64 {
	return p.verdicts[overload.LevelShed].Load() + p.shedAtSubmit.Load()
}

// degradedSteps counts the steps that fell back fully in-situ or
// dead-lettered.
func (p *Pipeline) degradedSteps() int64 {
	return p.verdicts[overload.LevelInSitu].Load() + p.deadLetters.Load()
}

// resilience snapshots the failure counters across all layers (the
// Report doc gives each one's scope).
func (p *Pipeline) resilience() metrics.Resilience {
	var retries, crc int64
	p.mu.Lock()
	for _, ep := range p.rankEps {
		s := ep.Stats()
		retries += s.Retries
		crc += s.ChecksumFailures
	}
	p.mu.Unlock()
	as := p.sched.area.Resilience()
	return metrics.Resilience{
		Retries:          retries,
		ChecksumFailures: crc,
		Requeues:         as.Requeues,
		DeadLetters:      p.deadLetters.Load(),
		DegradedSteps:    p.degradedSteps(),
	}
}

// observeResult feeds one final in-transit result into the route's
// breakers, at the time the result's last attempt ended: the transit
// breaker, and the poison breaker, to which a probe task's result is
// its probe's outcome. Only the drain goroutine calls it. Task outcomes
// move a breaker out of Closed only — a stale in-flight result cannot
// flip a route the prober is recovering.
func (p *Pipeline) observeResult(rt *route, res *staging.Result) {
	ok, now, step := res.Err == nil, res.End, res.Task.Step
	if b := rt.breaker; b != nil {
		prev := b.State()
		if ok {
			b.RecordSuccess(now, res.End.Sub(res.Start))
		} else {
			b.RecordFailure(now)
		}
		p.observeBreaker("breaker.transition", rt.name, prev, b.State(), step)
	}
	if q := rt.poison; q != nil {
		prev := q.State()
		switch {
		case res.Task.Probe:
			q.RecordProbe(now, ok)
		case ok:
			q.RecordSuccess(now, 0)
		default:
			q.RecordFailure(now)
		}
		p.observeBreaker("quarantine.transition", rt.name, prev, q.State(), step)
	}
}

// Credits returns the transit tier's credit account (nil unless
// overload control is enabled).
func (p *Pipeline) Credits() *dataspaces.Credits { return p.sched.Credits() }

// BreakerStates returns each hybrid route's current breaker position
// (empty unless overload control is enabled).
func (p *Pipeline) BreakerStates() map[string]overload.BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]overload.BreakerState, len(p.routes))
	for _, rt := range p.routes {
		if rt.breaker != nil {
			out[rt.name] = rt.breaker.State()
		}
	}
	return out
}

// registerPayload encodes one intermediate payload under spec and pins
// the result for the staging tier to pull. Lossy codecs need the
// payload's float-tail offset and shape from the analysis; when the
// analysis cannot provide them for this payload, the spec downgrades
// to delta — exact and self-contained — rather than reinterpreting
// opaque bytes as floats. When the encode produced a frame, the producer's marshal
// buffer is recycled immediately (the frame is what stays pinned);
// identity registrations keep the payload pinned exactly as before.
func (p *Pipeline) registerPayload(ep *dart.Endpoint, rt *route, spec codec.Spec, key string, step int, payload []byte) (dart.MemHandle, error) {
	floatOff := 0
	if spec.ID == codec.Quantize {
		ok := false
		if rt.quant != nil {
			floatOff, spec.NX, spec.NY, ok = rt.quant.PayloadFloatTail(payload)
		}
		if !ok {
			spec, floatOff = codec.Spec{ID: codec.Delta}, 0
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
// — the same linear-ownership rule as the dead-letter path — the
// flow-control credit is returned, and the inputs slice goes back to
// the service.
func (p *Pipeline) discardStaged(inputs []dataspaces.Descriptor, dec admitDecision) {
	for _, in := range inputs {
		p.sched.releaseHandle(in)
	}
	p.releaseCredit(dec.Account)
	p.sched.ds.RecycleInputs(inputs)
}

// shedSubmitted disposes of a step whose intermediate payloads were
// already produced and pinned when submission failed: the transit tier
// refused the task (bounded queue full), the service was gone, or rank
// 0's submit-time re-check found the route quarantined. The
// staged inputs are discarded and the step is stored as an explicit
// shed marker instead of leaking regions and vanishing.
func (p *Pipeline) shedSubmitted(rt *route, step int, inputs []dataspaces.Descriptor, dec admitDecision, cause error) {
	p.discardStaged(inputs, dec)
	// A credited quarantine probe that never reached the queue is a
	// failed probe: the route stays quarantined until the next window.
	if dec.Probe {
		p.failProbe(rt, step)
	}
	reason := fmt.Sprintf("shed: %v", cause)
	p.storeResult(rt, step, Degraded{Reason: reason})
	p.shedAtSubmit.Add(1)
	// Not a ladder verdict, so admission_decisions_total skips it.
	p.event(obs.CatAdmit, "overload", "shed",
		obs.Str("analysis", rt.name), obs.Int("step", step), obs.Str("reason", reason))
	if !errors.Is(cause, dataspaces.ErrQueueFull) && !errors.Is(cause, overload.ErrQuarantined) {
		// Backpressure and the quarantine re-check are expected;
		// anything else is a real error too.
		p.recordErr(fmt.Errorf("core: submit %s step %d: %w", rt.name, step, cause))
	}
}
