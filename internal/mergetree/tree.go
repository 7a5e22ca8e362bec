// Package mergetree implements merge trees (join trees of superlevel
// sets) and the paper's hybrid decomposition of their construction: a
// low-overhead in-core sweep per block in-situ (after Carr, Snoeyink &
// Axen), boundary augmentation so neighboring subtrees can be glued,
// and a streaming in-transit aggregation that processes subtree
// vertices and edges in arbitrary order, finalizes vertices whose last
// incident edge has been seen, and evicts finalized regular vertices
// from memory (Bremer et al.'s streaming construction).
//
// The merge tree here sweeps the isovalue from +inf downward: nodes
// appear at local maxima, arcs lengthen as contours grow, and arcs
// merge at saddles — the convention used for burning-region and
// ignition-kernel analysis of combustion data.
//
// Both halves run on flat int32-indexed arrays: the in-situ sweep on a
// Scratch, the in-transit glue on a Builder, and both produce a Tree,
// which is itself three arrays in sweep order.
package mergetree

import (
	"cmp"
	"fmt"
	"slices"
)

// Above reports whether vertex a=(ida,va) precedes b in the descending
// sweep order. Ties in value are broken by id (simulation of
// simplicity), so the order is total and identical on every rank.
func Above(va float64, ida int64, vb float64, idb int64) bool {
	if va != vb {
		return va > vb
	}
	return ida < idb
}

// Tree is an augmented merge tree in flat arrays. Node i is the i-th
// vertex in descending sweep order (Above), so the nodes above a node
// all have smaller indices and comparing two indices compares sweep
// positions. A Tree is read-only once built.
type Tree struct {
	IDs    []int64   // node i's vertex id
	Values []float64 // node i's value
	// Down[i] is the node that node i's contour merges into (always
	// > i), or -1 at a root: the minimum of a connected component of
	// the swept region.
	Down []int32
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.IDs) }

// upCounts returns, per node, how many nodes lie directly above it:
// 0 marks a maximum, >= 2 a merge saddle.
func (t *Tree) upCounts() []int32 {
	ups := make([]int32, t.Len())
	for _, d := range t.Down {
		if d >= 0 {
			ups[d]++
		}
	}
	return ups
}

// nodes returns the indices of the nodes for which keep holds, in
// sweep order.
func (t *Tree) nodes(keep func(i int, ups int32) bool) []int {
	var out []int
	for i, c := range t.upCounts() {
		if keep(i, c) {
			out = append(out, i)
		}
	}
	return out
}

// Maxima returns the leaves (local maxima) in descending sweep order.
func (t *Tree) Maxima() []int {
	return t.nodes(func(_ int, ups int32) bool { return ups == 0 })
}

// Saddles returns the merge saddles in descending sweep order.
func (t *Tree) Saddles() []int {
	return t.nodes(func(_ int, ups int32) bool { return ups >= 2 })
}

// Roots returns the nodes with no Down in descending sweep order. A
// connected domain yields exactly one; a forest arises when the swept
// region is disconnected.
func (t *Tree) Roots() []int {
	return t.nodes(func(i int, _ int32) bool { return t.Down[i] < 0 })
}

// Clone returns a copy of t that shares no memory with it.
func (t *Tree) Clone() *Tree {
	return &Tree{IDs: slices.Clone(t.IDs), Values: slices.Clone(t.Values), Down: slices.Clone(t.Down)}
}

// Arc is one edge of a (reduced) merge tree, directed downward.
type Arc struct {
	Hi, Lo int64
}

// Arcs returns every (up, down) vertex pair, sorted for deterministic
// comparison.
func (t *Tree) Arcs() []Arc {
	out := make([]Arc, 0, t.Len())
	for i, d := range t.Down {
		if d >= 0 {
			out = append(out, Arc{Hi: t.IDs[i], Lo: t.IDs[d]})
		}
	}
	slices.SortFunc(out, func(a, b Arc) int {
		if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
			return c
		}
		return cmp.Compare(a.Lo, b.Lo)
	})
	return out
}

// FromGraph computes the augmented merge tree of an arbitrary graph
// given vertex values and undirected edges. It is the reference
// construction the distributed pipeline is validated against.
func FromGraph(values map[int64]float64, edges [][2]int64) (*Tree, error) {
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

// Equal reports whether two trees have identical node sets, values and
// arcs. It is used by tests to check distributed == serial. Both trees
// list their nodes in sweep order, so equal trees are equal arrays.
func Equal(a, b *Tree) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Values, b.Values) && slices.Equal(a.Down, b.Down)
}
