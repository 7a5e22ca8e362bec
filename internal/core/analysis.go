// Package core implements the paper's hybrid in-situ/in-transit
// analysis framework: analyses are decomposed into a massively
// parallel in-situ stage running on the simulation ranks and a
// small-scale or serial in-transit stage running on staging buckets,
// connected by the DART transport and the DataSpaces scheduler, with
// successive timesteps temporally multiplexed across buckets.
//
// The package also provides the paper's three reformulated analyses
// (descriptive statistics, merge-tree topology, volume rendering) in
// both fully in-situ and hybrid variants, plus the auto-correlative
// statistics extension sketched in its conclusion.
package core

import (
	"insitu/internal/comm"
	"insitu/internal/grid"
	"insitu/internal/sim"
)

// Ctx is the per-rank, per-step context handed to in-situ stages.
type Ctx struct {
	Comm   *comm.Rank
	Sim    *sim.Rank
	Step   int
	Global grid.Box
	Owned  grid.Box
	Decomp *grid.Decomp
	// State persists per rank across steps, for analyses that
	// accumulate (for example temporal autocorrelation ring buffers).
	State map[string]any
}

// Analysis is the common contract: a name (which also keys descriptors
// and tasks in DataSpaces) and a cadence in steps. The paper's runs
// analyze every step in the benchmarks, every ~10th in production.
type Analysis interface {
	Name() string
	Every() int
}

// InSituAnalysis completes entirely on the primary resource. Its
// result (returned by rank 0; other ranks may return nil) is stored in
// the run report. The stage may use collectives through ctx.Comm.
type InSituAnalysis interface {
	Analysis
	RunInSitu(ctx *Ctx) (any, error)
}

// HybridAnalysis is split: InSituStage runs per rank and returns the
// intermediate payload to stage (orders of magnitude smaller than the
// raw block); InTransit runs once per step on a staging bucket over
// all ranks' payloads, ordered by rank.
type HybridAnalysis interface {
	Analysis
	InSituStage(ctx *Ctx) ([]byte, error)
	InTransit(step int, payloads [][]byte) (any, error)
}

// ShapedStage is an optional extension of hybrid analyses: the
// admission ladder's "shaped" rung asks the in-situ stage for a
// reduced intermediate payload (a coarser downsample, fewer bins, a
// truncated feature set) instead of abandoning the transit path
// entirely. Analyses that do not implement ShapedStage skip the rung:
// the ladder maps shaped straight to the in-situ fallback for them.
type ShapedStage interface {
	InSituStageShaped(ctx *Ctx) ([]byte, error)
}

// QuantizableStage is an optional extension of hybrid analyses whose
// intermediate payload carries a float64 tail the lossy transfer-path
// codec (quantize) can transform. PayloadFloatTail locates
// the tail within one payload the stage produced, returning ok false
// when this particular payload has no transformable tail (the codec
// layer then uses an exact encoding instead). It also reports the
// tail's x and y extents, x fastest, which the codec predicts along;
// 0, 0 when the tail has no known shape. Analyses that do not
// implement QuantizableStage skip the ladder's quantized rung.
type QuantizableStage interface {
	PayloadFloatTail(payload []byte) (off, nx, ny int, ok bool)
}

// InSituFallback is an optional extension of hybrid analyses: when the
// admission ladder floors a route at the in-situ rung (an open breaker,
// queue pressure, no transit credit, or a quarantine), it runs
// RunFallback — the fully in-situ reformulation of the same analysis —
// on the simulation ranks instead of blocking on staging. The step's
// stored result is then a Degraded value wrapping the fallback output.
type InSituFallback interface {
	RunFallback(ctx *Ctx) (any, error)
}

// Degraded is the stored result of a hybrid analysis step that could
// not use the transit path. Value holds the in-situ fallback's output
// (nil when the analysis provides no fallback, or when the step was
// dead-lettered after the data had already left the ranks).
type Degraded struct {
	Reason string
	Value  any
}
