package core

import (
	"fmt"

	"insitu/internal/mergetree"
)

// TopologyStreaming is the streaming variant of the hybrid merge-tree
// analysis: the in-transit stage starts building the global tree as
// soon as the first subtree arrives instead of buffering all of them —
// the improvement the paper's conclusion proposes to "hide much of the
// in-transit computational costs". Subtrees are incorporated in
// arrival order, which the arbitrary-order streaming construction
// supports directly (eviction requires the sorted-edge protocol and is
// therefore only available in the buffered TopologyHybrid).
type TopologyStreaming struct {
	TopologyHybrid
}

// NewTopologyStreaming returns the streaming variant with the
// defaults of NewTopologyHybrid.
func NewTopologyStreaming() *TopologyStreaming {
	return &TopologyStreaming{TopologyHybrid: *NewTopologyHybrid()}
}

// Name implements Analysis.
func (t *TopologyStreaming) Name() string { return "hybrid topology (streaming)" }

// InTransitStream implements StreamingHybridAnalysis: incorporate each
// subtree the moment it arrives.
func (t *TopologyStreaming) InTransitStream(step int, inputs <-chan StreamInput) (any, error) {
	b := mergetree.NewBuilder(false)
	for in := range inputs {
		st, err := mergetree.UnmarshalSubtree(in.Data)
		if err != nil {
			return nil, fmt.Errorf("topology: streamed payload %d: %w", in.Index, err)
		}
		for _, v := range st.Verts {
			if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
				return nil, err
			}
		}
		for _, e := range st.Edges {
			if err := b.AddEdge(e.Hi, e.Lo); err != nil {
				return nil, err
			}
		}
	}
	tree, stream, err := b.Finish()
	if err != nil {
		return nil, err
	}
	res := &TopologyResult{Tree: tree, Stream: stream, arrivalOrdered: true}
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
