package core

import (
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/sim"
)

// TopologyResult is the in-transit output of the hybrid merge-tree
// analysis: the global tree plus the streaming statistics and, when a
// threshold is configured, the extracted features.
type TopologyResult struct {
	Tree     *mergetree.Tree
	Stream   mergetree.StreamStats
	Features []mergetree.Feature
	// arrivalOrdered marks a result whose subtrees were incorporated in
	// payload arrival order (TopologyStreaming): its tree is the same
	// every run, its Stream.SpliceOps work counter is not.
	arrivalOrdered bool
}

// TopologyHybrid is the hybrid merge-tree analysis: each rank computes
// the reduced subtree of its extended block in-situ (boundary-
// augmented so subtrees glue exactly), and a serial in-transit stage
// aggregates them with the streaming, memory-bounded algorithm.
type TopologyHybrid struct {
	// Var is the scalar to analyze (default "T").
	Var    string
	EveryN int
	// Policy selects the boundary augmentation (default
	// KeepSharedBoundary, the provably sufficient set).
	Policy mergetree.BoundaryPolicy
	// SimplifyEps prunes branches below this persistence in-transit
	// (0 keeps everything).
	SimplifyEps float64
	// FeatureThreshold, when > 0, extracts superlevel-set features at
	// this threshold from the simplified tree.
	FeatureThreshold float64
	// Evict enables the memory-bounded streaming aggregation
	// (default true via NewTopologyHybrid).
	Evict bool
	// Workers > 1 switches the in-transit stage to the parallel
	// hierarchical glue (pairwise region merges) with that many
	// concurrent merges — the parallel in-transit variant the paper
	// notes "can easily be made" from the serial one.
	Workers int
}

// NewTopologyHybrid returns the analysis with the paper's defaults:
// temperature field, streaming eviction on.
func NewTopologyHybrid() *TopologyHybrid {
	return &TopologyHybrid{Var: "T", Evict: true}
}

// Name implements Analysis.
func (t *TopologyHybrid) Name() string { return "hybrid topology" }

// Every implements Analysis.
func (t *TopologyHybrid) Every() int { return t.EveryN }

func (t *TopologyHybrid) varName() string {
	if t.Var == "" {
		return "T"
	}
	return t.Var
}

// InSituStage implements HybridAnalysis: compute the local subtree of
// the rank's extended block where it lies in the simulation's ghosted
// field and pack it into a pooled buffer for transfer.
func (t *TopologyHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	f := ctx.Sim.GhostedField(t.varName())
	if f == nil {
		return nil, fmt.Errorf("topology: unknown variable %q", t.varName())
	}
	st, err := subtreeScratch(ctx).Subtree(f, ctx.Global, ctx.Owned, ctx.Comm.ID(), t.Policy)
	if err != nil {
		return nil, err
	}
	return st.AppendMarshal(bufpool.Get(st.MarshalSize())[:0]), nil
}

const subtreeScratchKey = "mergetree.scratch"

// subtreeScratch returns the rank's merge-tree sweep scratch, created
// by the first in-situ stage that asks for it. The rank goroutine runs
// its routes one after another, so every route that sweeps a subtree
// shares the one scratch; the subtree a sweep returns lives in it, and
// a stage packs it into its payload before it returns.
func subtreeScratch(ctx *Ctx) *mergetree.Scratch {
	s, ok := ctx.State[subtreeScratchKey].(*mergetree.Scratch)
	if !ok {
		s = new(mergetree.Scratch)
		ctx.State[subtreeScratchKey] = s
	}
	return s
}

// InTransit implements HybridAnalysis: glue the subtrees into the
// global merge tree with the streaming algorithm, then optionally
// simplify and extract features.
func (t *TopologyHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	subtrees := make([]*mergetree.Subtree, 0, len(payloads))
	var globalBox grid.Box
	for i, p := range payloads {
		st, err := mergetree.UnmarshalSubtree(p)
		if err != nil {
			return nil, fmt.Errorf("topology: payload %d: %w", i, err)
		}
		globalBox = globalBox.Union(st.Block)
		subtrees = append(subtrees, st)
	}
	var tree *mergetree.Tree
	var stream mergetree.StreamStats
	var err error
	if t.Workers > 1 {
		tree, err = mergetree.GlueHierarchical(subtrees, globalBox, t.Workers)
	} else {
		tree, stream, err = mergetree.Glue(subtrees, mergetree.GlueOptions{Evict: t.Evict})
	}
	if err != nil {
		return nil, err
	}
	res := &TopologyResult{Tree: tree, Stream: stream}
	work := tree
	if t.SimplifyEps > 0 {
		work = mergetree.Simplify(tree, t.SimplifyEps)
		res.Tree = work
	}
	if t.FeatureThreshold > 0 {
		seg := mergetree.Segment(work, t.FeatureThreshold)
		res.Features = seg.Features(work)
	}
	return res, nil
}

// allVarNames returns the full simulation variable list.
func allVarNames() []string { return sim.VarNames }
