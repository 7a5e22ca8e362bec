package mergetree

import (
	"cmp"
	"math"
	"slices"
)

// Branch describes one branch of the branch decomposition: a maximum,
// the saddle at which its contour merges into a contour with a higher
// maximum, and the resulting persistence. Max and Saddle are node
// indices into the tree decomposed. The globally highest maximum of
// each component is unpaired (infinite persistence, Saddle == -1).
type Branch struct {
	Max         int
	Saddle      int // -1 for a root branch
	Persistence float64
}

// BranchDecomposition pairs every maximum with its death saddle.
// Branches are returned in decreasing persistence order.
func BranchDecomposition(t *Tree) []Branch {
	var s Scratch
	bm := s.branchMax(t)
	var out []Branch
	for i, d := range t.Down {
		if d < 0 {
			out = append(out, Branch{Max: int(bm[i]), Saddle: -1, Persistence: math.Inf(1)})
		} else if m := bm[i]; m != bm[d] {
			out = append(out, Branch{Max: int(m), Saddle: int(d), Persistence: t.Values[m] - t.Values[d]})
		}
	}
	slices.SortFunc(out, func(a, b Branch) int {
		if a.Persistence != b.Persistence {
			if a.Persistence > b.Persistence {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Max, b.Max) // the higher maximum first
	})
	return out
}

// branchMax returns, in s.parent, the highest maximum above each node
// of t (inclusive). Nodes are in sweep order, so a node's ups all come
// before it and the highest of several maxima is the smallest index.
// A maximum's branch dies at the first node below it whose branchMax
// differs: that node is the saddle where a higher branch absorbs it.
func (s *Scratch) branchMax(t *Tree) []int32 {
	if err := s.grow(t.Len()); err != nil {
		panic(err) // a tree of more than 2^31 nodes
	}
	bm := s.parent
	for i := range bm {
		bm[i] = -1
	}
	for i, d := range t.Down {
		if bm[i] < 0 {
			bm[i] = int32(i) // nothing above: a maximum
		}
		if d >= 0 && (bm[d] < 0 || bm[i] < bm[d]) {
			bm[d] = bm[i]
		}
	}
	return bm
}

// Simplify removes every branch with persistence below eps, returning
// a new tree over the surviving nodes: a node survives iff the highest
// maximum above it does. Saddles that become regular are retained;
// apply Reduce to contract them. The input tree is not modified, and
// the result shares no memory with t or the scratch — it is the only
// tree Simplify writes.
func (s *Scratch) Simplify(t *Tree, eps float64) *Tree {
	bm := s.branchMax(t)
	dead := s.flags
	clear(dead)
	for i, d := range t.Down {
		p := math.Inf(1) // a root branch
		if d >= 0 {
			if bm[i] == bm[d] {
				continue // the branch goes on below i
			}
			p = t.Values[bm[i]] - t.Values[d]
		}
		if !(p >= eps) {
			dead[bm[i]] = 1
		}
	}
	// A live node's down is always live: its branch continues through
	// it or merges into a higher, hence longer-lived, one. slot maps a
	// live node to its position in the result.
	slot := s.down
	n := int32(0)
	for i := range t.Down {
		slot[i] = -1
		if dead[bm[i]] == 0 {
			slot[i] = n
			n++
		}
	}
	out := &Tree{IDs: make([]int64, 0, n), Values: make([]float64, 0, n), Down: make([]int32, 0, n)}
	for i, d := range t.Down {
		if slot[i] < 0 {
			continue
		}
		if d >= 0 {
			d = slot[d]
		}
		out.IDs = append(out.IDs, t.IDs[i])
		out.Values = append(out.Values, t.Values[i])
		out.Down = append(out.Down, d)
	}
	return out
}
