package mergetree

import (
	"fmt"
	"slices"
	"sort"
)

// The serial oracles the distributed and streaming constructions are
// held to: the merge tree of an explicit graph, the glue that collects
// every subtree into one graph, and tree equality.

// fromGraph computes the augmented merge tree of an arbitrary graph
// given vertex values and undirected edges. It is the reference
// construction the distributed pipeline is validated against.
func fromGraph(values map[int64]float64, edges [][2]int64) (*Tree, error) {
	ids := make([]int64, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var s Scratch
	if err := s.grow(len(ids)); err != nil {
		return nil, err
	}
	vals := make([]float64, len(ids))
	index := make(map[int64]int32, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
		vals[i] = values[id]
		s.admit(int32(i))
	}
	adj := make([][]int32, len(ids))
	for _, e := range edges {
		a, oka := index[e[0]]
		b, okb := index[e[1]]
		if !oka || !okb {
			return nil, fmt.Errorf("mergetree: edge (%d,%d) references undeclared vertex", e[0], e[1])
		}
		if a == b {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	s.sweep(vals, func(v int32, _ []int32) []int32 { return adj[v] })
	return s.tree(vals, func(v int32) int64 { return ids[v] }), nil
}

// glueSerial aggregates subtrees by collecting all vertices and edges
// and running the reference graph sweep — the non-streaming baseline
// the streaming aggregation is validated against.
func glueSerial(subtrees []*Subtree) (*Tree, error) {
	values := make(map[int64]float64)
	var edges [][2]int64
	for _, st := range subtrees {
		for _, v := range st.Verts {
			if old, ok := values[v.ID]; ok && old != v.Value {
				return nil, fmt.Errorf("mergetree: vertex %d has conflicting values %g and %g", v.ID, old, v.Value)
			}
			values[v.ID] = v.Value
		}
		for _, e := range st.Edges {
			edges = append(edges, [2]int64{e.Hi, e.Lo})
		}
	}
	// Deterministic edge order.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return fromGraph(values, edges)
}

// equalTrees reports whether two trees have identical node sets,
// values and arcs. Both trees list their nodes in sweep order, so equal
// trees are equal arrays.
func equalTrees(a, b *Tree) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Values, b.Values) && slices.Equal(a.Down, b.Down)
}
