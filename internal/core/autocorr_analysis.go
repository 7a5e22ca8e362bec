package core

import (
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/stats"
)

// AutoCorrHybrid implements the hybrid auto-correlative statistical
// technique the paper's conclusion proposes as future work: each rank
// keeps a ring buffer of its recent local snapshots and updates
// per-lag covariance accumulators in-situ; the (tiny) accumulators
// move to the staging area where a serial stage combines them into
// global temporal autocorrelations.
type AutoCorrHybrid struct {
	// Var is the variable whose temporal autocorrelation is tracked
	// (default "T").
	Var string
	// Lags in steps (default {1, 5, 10} — bracketing the ignition-
	// kernel lifetime).
	Lags   []int
	EveryN int
}

// Name implements Analysis.
func (a *AutoCorrHybrid) Name() string { return "hybrid auto-correlation" }

// Every implements Analysis.
func (a *AutoCorrHybrid) Every() int { return a.EveryN }

func (a *AutoCorrHybrid) lags() []int {
	if len(a.Lags) > 0 {
		return a.Lags
	}
	return []int{1, 5, 10}
}

const autoCorrStateKey = "autocorr"

// InSituStage implements HybridAnalysis: push the current snapshot,
// read from the simulation's storage over the owned block, into the
// per-rank correlator and ship the accumulators.
func (a *AutoCorrHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	name := a.Var
	if name == "" {
		name = "T"
	}
	f := ctx.Sim.GhostedField(name)
	if f == nil {
		return nil, fmt.Errorf("autocorr: unknown variable %q", name)
	}
	ac, ok := ctx.State[autoCorrStateKey].(*stats.AutoCorrelator)
	if !ok {
		var err error
		ac, err = stats.NewAutoCorrelator(a.lags()...)
		if err != nil {
			return nil, err
		}
		ctx.State[autoCorrStateKey] = ac
	}
	ac.PushBox(f, ctx.Owned)
	return ac.AppendMarshal(bufpool.Get(ac.MarshalSize())[:0]), nil
}

// releaseAutoCorr hands the rank's correlator's ring slots, if a stage
// made one, back for the next run's ranks.
func releaseAutoCorr(ctx *Ctx) {
	if ac, ok := ctx.State[autoCorrStateKey].(*stats.AutoCorrelator); ok {
		ac.Release()
	}
}

// AutoCorrResult is the in-transit output: the global per-lag
// autocorrelation estimates.
type AutoCorrResult struct {
	Lags []int
	Corr []float64
	N    int64 // paired observations behind the lag-0 estimate
}

// InTransit implements HybridAnalysis: combine the ranks' accumulators
// and report the correlations.
func (a *AutoCorrHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	var global *stats.AutoCorrelator
	for i, p := range payloads {
		ac, err := stats.UnmarshalAutoCorrelator(p)
		if err != nil {
			return nil, fmt.Errorf("autocorr: payload %d: %w", i, err)
		}
		if global == nil {
			global = ac
			continue
		}
		if err := global.Combine(ac); err != nil {
			return nil, err
		}
	}
	if global == nil {
		return nil, fmt.Errorf("autocorr: no payloads")
	}
	res := &AutoCorrResult{Lags: global.Lags, Corr: global.Corr()}
	if len(global.Lags) > 0 {
		res.N = global.Acc(0).N
	}
	return res, nil
}
