package core

import (
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/stats"
)

// StatsInSitu is the fully in-situ descriptive-statistics variant:
// learn and derive both run on the shared compute resources, with an
// all-to-all (allreduce) guaranteeing a consistent model on every
// rank. The derived per-variable statistics are the result.
type StatsInSitu struct {
	// Vars lists the variables to summarize (default: all 14).
	Vars []string
	// EveryN is the cadence in steps (default 1).
	EveryN int
}

// Name implements Analysis.
func (s *StatsInSitu) Name() string { return "in-situ descriptive statistics" }

// Every implements Analysis.
func (s *StatsInSitu) Every() int { return s.EveryN }

// RunInSitu implements InSituAnalysis.
func (s *StatsInSitu) RunInSitu(ctx *Ctx) (any, error) {
	local := stats.NewModel()
	if err := learnOwned(ctx, s.Vars, local); err != nil {
		return nil, err
	}
	global := stats.ParallelLearn(ctx.Comm, local)
	return global.DeriveAll(), nil
}

// learnOwned is the learn stage of both statistics variants: it folds
// the named variables (default: all 14) into local, read from the
// simulation's ghosted fields restricted to the owned block — the
// analysis shares the simulation's memory, it copies nothing.
func learnOwned(ctx *Ctx, vars []string, local *stats.Model) error {
	if len(vars) == 0 {
		vars = allVarNames()
	}
	for _, v := range vars {
		f := ctx.Sim.GhostedField(v)
		if f == nil {
			return fmt.Errorf("stats: unknown variable %q", v)
		}
		local.LearnBoxParallel(f, ctx.Owned)
	}
	return nil
}

// StatsHybrid is the hybrid variant: learn runs in-situ per rank with
// no communication at all; the partial models (a few hundred bytes
// each) move to the staging area where a single serial process
// aggregates them and derives the detailed statistics.
type StatsHybrid struct {
	Vars   []string
	EveryN int
}

// Name implements Analysis.
func (s *StatsHybrid) Name() string { return "hybrid descriptive statistics" }

// Every implements Analysis.
func (s *StatsHybrid) Every() int { return s.EveryN }

const statsModelKey = "stats.model"

// InSituStage implements HybridAnalysis: the learn stage, into the
// rank's model in Ctx.State (Reset first, so no other route's variables
// stay), packed into a pooled buffer.
func (s *StatsHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	local, ok := ctx.State[statsModelKey].(*stats.Model)
	if !ok {
		local = stats.NewModel()
		ctx.State[statsModelKey] = local
	}
	local.Reset()
	if err := learnOwned(ctx, s.Vars, local); err != nil {
		return nil, err
	}
	return local.AppendMarshal(bufpool.Get(local.MarshalSize())[:0]), nil
}

// RunFallback implements InSituFallback: when the transit path is
// degraded the statistics complete fully in-situ — learn with an
// allreduce instead of staging the partial models.
func (s *StatsHybrid) RunFallback(ctx *Ctx) (any, error) {
	in := &StatsInSitu{Vars: s.Vars, EveryN: s.EveryN}
	return in.RunInSitu(ctx)
}

// InTransit implements HybridAnalysis: the derive stage — aggregate
// all partial models into the transit scratch's model and derive,
// serially.
func (s *StatsHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	if err := stats.AggregateSerial(&ts.model, payloads); err != nil {
		return nil, err
	}
	return ts.model.DeriveAll(), nil
}

// AssessTestResult is the output of the assess and test stages.
type AssessTestResult struct {
	Var      string
	Model    stats.Derived
	Assessed int64 // observations assessed
	Extremes int64 // beyond Sigma standard deviations
	Test     stats.TestResult
}

// AssessTestInSitu completes the four-stage pattern of the paper's
// Fig. 4 inside the pipeline: learn (allreduce to a consistent global
// model), derive, then assess every local observation against the
// model (flagging |z| > Sigma outliers — candidate ignition kernels
// when applied to temperature) and run the Jarque–Bera normality test.
// Assess and test require no further communication beyond one count
// reduction for reporting.
type AssessTestInSitu struct {
	// Var is the assessed variable (default "T").
	Var string
	// Sigma is the outlier threshold in standard deviations
	// (default 3).
	Sigma  float64
	EveryN int
}

// Name implements Analysis.
func (a *AssessTestInSitu) Name() string { return "in-situ assess & test" }

// Every implements Analysis.
func (a *AssessTestInSitu) Every() int { return a.EveryN }

// RunInSitu implements InSituAnalysis.
func (a *AssessTestInSitu) RunInSitu(ctx *Ctx) (any, error) {
	name := a.Var
	if name == "" {
		name = "T"
	}
	sigma := a.Sigma
	if sigma <= 0 {
		sigma = 3
	}
	f := ctx.Sim.GhostedField(name)
	if f == nil {
		return nil, fmt.Errorf("assess: unknown variable %q", name)
	}
	// Learn + derive.
	local := stats.NewModel()
	local.LearnBoxParallel(f, ctx.Owned)
	global := stats.ParallelLearn(ctx.Comm, local)
	derived := stats.Derive(global.Var(name))
	// Assess locally, row by row of the owned block; reduce the
	// outlier count for the report.
	extremes := int64(0)
	for at, n := 0, ctx.Owned.Size(); at < n; {
		row := f.Row(ctx.Owned, at, n)
		for _, x := range row {
			if stats.AssessOne(x, derived, sigma).Extreme {
				extremes++
			}
		}
		at += len(row)
	}
	total := ctx.Comm.Allreduce(extremes, func(x, y any) any { return x.(int64) + y.(int64) }).(int64)
	if ctx.Comm.ID() != 0 {
		return nil, nil
	}
	return &AssessTestResult{
		Var:      name,
		Model:    derived,
		Assessed: derived.N,
		Extremes: total,
		Test:     stats.JarqueBera(derived),
	}, nil
}
