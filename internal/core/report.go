package core

import (
	"fmt"

	"insitu/internal/dart"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
	"insitu/internal/recovery"
)

// Report is the outcome of a pipeline run.
type Report struct {
	Steps      int
	Results    map[string]map[int]any // analysis -> step -> output
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

// finishReport folds the run's counters into the collector and builds
// the final Report. Called once per pipeline, after its simulation has
// finished and the drain has delivered every final result.
func (p *Pipeline) finishReport(steps int, siblings bool) *Report {
	p.col.RecordResilience(p.resilience(siblings))
	if p.ov != nil {
		var o metrics.Overload
		o.CreditsDenied = p.sched.ds.Credits().Denied()
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
	results := make(map[string]map[int]any, len(p.routes))
	for _, rt := range p.routes {
		if rt.results != nil {
			results[rt.name] = rt.results
		}
	}
	return &Report{
		Steps:      steps,
		Results:    results,
		Metrics:    p.col,
		Net:        p.sched.net.Stats(),
		Resilience: p.col.Resilience(),
		Overload:   p.col.Overload(),
		Codec:      p.sched.dart.CodecStats(),
		Recovery:   recRep,
		Warnings:   append([]error{}, p.warns...),
		Errs:       append([]error{}, p.runErrs...),
	}
}
