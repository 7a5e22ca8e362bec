package core

import "fmt"

// TopologyStreaming is the streaming variant of the hybrid merge-tree
// analysis: the in-transit stage starts building the global tree as
// soon as the first subtree arrives instead of buffering all of them —
// the improvement the paper's conclusion proposes to "hide much of the
// in-transit computational costs". Subtrees are incorporated in
// arrival order by mergetree.Builder.Add (eviction requires the
// sorted-edge protocol and is therefore only available in the buffered
// TopologyHybrid's Builder.Glue).
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
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	b := &ts.build
	b.Reset()
	st := ts.subtrees(1)[0]
	for in := range inputs {
		if _, err := st.Unmarshal(in.Data); err != nil {
			return nil, fmt.Errorf("topology: streamed payload %d: %w", in.Index, err)
		}
		if err := b.Add(st); err != nil {
			return nil, err
		}
	}
	tree, stream, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return t.result(ts, tree, stream, true), nil
}
