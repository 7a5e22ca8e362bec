package core

import (
	"fmt"

	"insitu/internal/dart"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
	"insitu/internal/overload"
	"insitu/internal/recovery"
)

// Report is the outcome of one tenant's run. Its counts are the
// tenant's own, alone or beside siblings, except Net, Codec and
// Resilience.Requeues: those are fabric-wide, because every tenant
// shares the network and the bucket pool. The fabric's fault and
// bucket-crash counts are read from the fabric itself
// (Network().Stats().Faulted, Staging().Resilience().Crashes).
// Resilience.Retries and ChecksumFailures are charged to the tenant's
// rank endpoints, which own the regions its tasks pull; a retry on a
// bucket-owned region (the transit-health probe's, the only one)
// counts for no tenant.
type Report struct {
	Results    map[string]map[int]any // analysis -> step -> output; frames are []FrameRef
	Metrics    *metrics.Collector
	Net        netsim.Stats
	Resilience metrics.Resilience
	Overload   metrics.Overload
	Codec      dart.CodecStats
	Recovery   *RecoveryReport // nil unless TenantConfig.Recovery was set
	Warnings   []error         // non-fatal conditions (e.g. checkpoint fallback)
	Errs       []error
}

// Result returns the stored output of an analysis at a step.
func (r *Report) Result(analysis string, step int) any {
	return r.Results[analysis][step]
}

// finishReport builds the final Report from the run's tallies and the
// fabric's counters. Called once per pipeline, after its simulation has
// finished and the drain has delivered every final result.
func (p *Pipeline) finishReport() *Report {
	// resilience takes p.mu, so it runs before the lock below.
	res := p.resilience()
	over := metrics.Overload{
		CreditsDenied:  p.creditsDenied.Load(),
		StepsDelta:     p.verdicts[overload.LevelDelta].Load(),
		StepsQuantized: p.verdicts[overload.LevelQuantized].Load(),
		StepsShaped:    p.verdicts[overload.LevelShaped].Load(),
		StepsShed:      p.stepsShed(),
		StepsFallback:  p.verdicts[overload.LevelInSitu].Load(),
	}
	if p.ov != nil {
		over.BreakerOpens, over.BreakerTransitions = p.breakerTotals()
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
	results := make(map[string]map[int]any, len(p.routes))
	for _, rt := range p.routes {
		if rt.results != nil {
			results[rt.name] = rt.results
		}
	}
	return &Report{
		Results:    results,
		Metrics:    p.col,
		Net:        p.sched.net.Stats(),
		Resilience: res,
		Overload:   over,
		Codec:      p.sched.dart.CodecStats(),
		Recovery:   recRep,
		Warnings:   append([]error{}, p.warns...),
		Errs:       append([]error{}, p.runErrs...),
	}
}
