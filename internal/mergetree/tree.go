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
