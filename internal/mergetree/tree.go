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
package mergetree

import (
	"fmt"
	"slices"
	"sort"
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

// Node is one vertex of an augmented merge tree.
type Node struct {
	ID    int64
	Value float64
	// Down points to the next lower node this vertex's contour merges
	// into; nil at the root (global minimum of the swept region).
	Down *Node
	// Ups lists the nodes directly above this one. len(Ups) == 0 marks
	// a maximum, >= 2 a merge saddle.
	Ups []*Node
}

// IsMax reports whether the node is a leaf (local maximum).
func (n *Node) IsMax() bool { return len(n.Ups) == 0 }

// IsSaddle reports whether two or more contours merge at this node.
func (n *Node) IsSaddle() bool { return len(n.Ups) >= 2 }

// IsRegular reports whether the node lies in the interior of an arc.
func (n *Node) IsRegular() bool { return len(n.Ups) == 1 && n.Down != nil }

// Tree is an augmented merge tree: every swept vertex is a node.
type Tree struct {
	Nodes map[int64]*Node
	// Roots are nodes with no Down pointer. A connected domain yields
	// exactly one root (its global minimum); a forest arises when the
	// swept region is disconnected.
	Roots []*Node
}

// Node returns the node with the given id, or nil.
func (t *Tree) Node(id int64) *Node { return t.Nodes[id] }

// Maxima returns all leaves in descending sweep order.
func (t *Tree) Maxima() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.IsMax() {
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

// Saddles returns all merge saddles in descending sweep order.
func (t *Tree) Saddles() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.IsSaddle() {
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		return Above(ns[i].Value, ns[i].ID, ns[j].Value, ns[j].ID)
	})
}

// Arc is one edge of a (reduced) merge tree, directed downward.
type Arc struct {
	Hi, Lo int64
}

// Arcs returns every (up, down) node pair, sorted for deterministic
// comparison.
func (t *Tree) Arcs() []Arc {
	var out []Arc
	for _, n := range t.Nodes {
		if n.Down != nil {
			out = append(out, Arc{Hi: n.ID, Lo: n.Down.ID})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hi != out[j].Hi {
			return out[i].Hi < out[j].Hi
		}
		return out[i].Lo < out[j].Lo
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
// arcs. It is used by tests to check distributed == serial.
func Equal(a, b *Tree) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for id, na := range a.Nodes {
		nb, ok := b.Nodes[id]
		if !ok || na.Value != nb.Value {
			return false
		}
		da, db := int64(-1), int64(-1)
		if na.Down != nil {
			da = na.Down.ID
		}
		if nb.Down != nil {
			db = nb.Down.ID
		}
		if da != db {
			return false
		}
	}
	return true
}
