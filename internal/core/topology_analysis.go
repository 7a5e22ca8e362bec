package core

import (
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// TopologyResult is the in-transit output of the hybrid merge-tree
// analysis: the global tree plus the streaming statistics and, when a
// threshold is configured, the extracted features.
type TopologyResult struct {
	Tree     *mergetree.Tree
	Stream   mergetree.StreamStats
	Features []mergetree.Feature
}

// TopologyHybrid is the hybrid merge-tree analysis: each rank computes
// the reduced subtree of its extended block in-situ (boundary-
// augmented so subtrees glue exactly), and a serial in-transit stage
// aggregates them with the streaming, memory-bounded algorithm.
type TopologyHybrid struct {
	// Var is the scalar to analyze (default "T").
	Var    string
	EveryN int
	// SimplifyEps prunes branches below this persistence in-transit
	// (0 keeps everything).
	SimplifyEps float64
	// FeatureThreshold, when > 0, extracts superlevel-set features at
	// this threshold from the simplified tree.
	FeatureThreshold float64
}

// NewTopologyHybrid returns the analysis with the paper's defaults:
// the temperature field.
func NewTopologyHybrid() *TopologyHybrid {
	return &TopologyHybrid{Var: "T"}
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
// field, boundary-augmented with KeepOverlapMaxima (the maxima of each
// overlap slab it shares with a neighbor, enough to glue the exact
// global tree), and pack it into a pooled buffer for transfer.
func (t *TopologyHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	f := ctx.Sim.GhostedField(t.varName())
	if f == nil {
		return nil, fmt.Errorf("topology: unknown variable %q", t.varName())
	}
	return packSubtree(ctx, f, 0)
}

const subtreeScratchKey = "mergetree.scratch"

// packSubtree sweeps the rank's KeepOverlapMaxima subtree of f on the
// rank's merge-tree scratch and packs it into a pooled buffer with room
// for extra more bytes. Every merge-tree payload starts with this
// subtree; a route appends its extras after it, and the in-transit
// glue finds them where the subtree's encoding ends.
//
// The rank goroutine runs its routes one after another, so every
// route that sweeps a subtree shares the one scratch, drawn by the
// first in-situ stage that asks for it; the subtree a sweep returns
// lives in it and is dead once it is packed.
func packSubtree(ctx *Ctx, f *grid.Field, extra int) ([]byte, error) {
	s, ok := ctx.State[subtreeScratchKey].(*mergetree.Scratch)
	if !ok {
		if s = subtreeScratches.Get(); s == nil {
			s = new(mergetree.Scratch)
		}
		ctx.State[subtreeScratchKey] = s
	}
	st, err := s.Subtree(f, ctx.Global, ctx.Owned, ctx.Comm.ID(), mergetree.KeepOverlapMaxima)
	if err != nil {
		return nil, err
	}
	return st.AppendMarshal(bufpool.Get(st.MarshalSize() + extra)[:0]), nil
}

// subtreeScratches holds the in-situ scratches of ranks whose loops
// have ended: at most as many as ranks ever swept subtrees at once.
var subtreeScratches bufpool.List[*mergetree.Scratch]

// putSubtreeScratch hands the rank's in-situ scratch, if a stage drew
// one, back for the next run's ranks.
func putSubtreeScratch(ctx *Ctx) {
	if s, ok := ctx.State[subtreeScratchKey].(*mergetree.Scratch); ok {
		subtreeScratches.Put(s)
	}
}

// InTransit implements HybridAnalysis: glue the subtrees into the
// global merge tree with the memory-bounded streaming algorithm, then
// optionally simplify and extract features. The glued tree lives in the
// task's scratch; the result holds the simplified tree or a copy of the
// glued one, and nothing in it points into the scratch.
func (t *TopologyHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	tree, stream, err := ts.glue(payloads, nil)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	if t.SimplifyEps > 0 {
		tree = ts.work.Simplify(tree, t.SimplifyEps)
	} else {
		tree = tree.Clone()
	}
	res := &TopologyResult{Tree: tree, Stream: stream}
	if t.FeatureThreshold > 0 {
		res.Features = ts.work.Features(tree, t.FeatureThreshold)
	}
	return res, nil
}

// transitScratch is the memory of one in-transit task: for the
// merge-tree routes the subtrees it decodes, the builder that glues
// them and the work arrays of the passes after the glue; for the hybrid
// viz route the block table it decodes blocks into; for the hybrid
// statistics route the model it aggregates into. A task takes one with
// getTransitScratch for the length of its InTransit call and puts it
// back before returning, so one is in use per busy staging bucket and a
// bucket works step after step in the same arrays. The task's result
// never points into it.
type transitScratch struct {
	decoded []mergetree.Subtree
	ptrs    []*mergetree.Subtree
	build   mergetree.Builder
	work    mergetree.Scratch
	table   render.BlockTable
	model   stats.Model
}

// transitScratches holds the idle transit scratches: at most as many
// as in-transit tasks have ever run at once in the process, which the
// staging buckets bound.
var transitScratches bufpool.List[*transitScratch]

func getTransitScratch() *transitScratch {
	if ts := transitScratches.Get(); ts != nil {
		return ts
	}
	return new(transitScratch)
}

func putTransitScratch(ts *transitScratch) { transitScratches.Put(ts) }

// subtrees returns n subtrees to decode into, reusing the ones decoded
// before.
func (ts *transitScratch) subtrees(n int) []*mergetree.Subtree {
	if len(ts.decoded) < n {
		ts.decoded = append(ts.decoded, make([]mergetree.Subtree, n-len(ts.decoded))...)
	}
	ts.ptrs = ts.ptrs[:0]
	for i := range n {
		ts.ptrs = append(ts.ptrs, &ts.decoded[i])
	}
	return ts.ptrs
}

// glue decodes the subtree at the front of each payload, hands the
// bytes after it to rest (nil for a route whose payload is the bare
// subtree) and glues the subtrees into the global merge tree, which
// lives in ts. A payload that does not decode fails with an error
// naming it and wrapping mergetree.ErrCorruptPayload.
func (ts *transitScratch) glue(payloads [][]byte, rest func([]byte) error) (*mergetree.Tree, mergetree.StreamStats, error) {
	subtrees := ts.subtrees(len(payloads))
	for i, p := range payloads {
		extras, err := subtrees[i].Unmarshal(p)
		if err == nil && rest != nil {
			err = rest(extras)
		}
		if err != nil {
			return nil, mergetree.StreamStats{}, fmt.Errorf("payload %d: %w", i, err)
		}
	}
	return ts.build.Glue(subtrees)
}

// allVarNames returns the full simulation variable list.
func allVarNames() []string { return sim.VarNames }
