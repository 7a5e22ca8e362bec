package mergetree

import (
	"fmt"
	"math"
	"slices"
)

// Scratch holds the flat per-vertex arrays of one descending sweep.
// Vertices are int32 indices into a caller-defined value array (the
// cells of a field, the sorted ids of a graph); index order must be id
// order, so ties in value break the way Above breaks them. A Scratch
// grows to the largest block it has swept and is reused, not freed,
// between sweeps: an in-situ stage that sweeps the same block every
// step allocates nothing after the first. It is not safe for
// concurrent use.
type Scratch struct {
	order  []int32 // the swept vertices, in descending sweep order
	parent []int32 // union-find over vertices; -1 marks one not yet swept
	down   []int32 // the next lower vertex a vertex's contour merges into; -1 at a root
	ups    []int32 // how many contours end at the vertex: 0 a maximum, >= 2 a saddle
	flags  []uint8 // per-cell neighbor mask and retained bit of a block sweep
	nbuf   [6]int32

	st Subtree // the last Subtree result; its slices are reused
}

// grow sizes the per-vertex arrays for indices in [0, n) and empties
// the sweep order. The arrays are not initialized: a sweep initializes
// exactly the vertices it puts in order.
func (s *Scratch) grow(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("mergetree: %d vertices exceed the sweep's int32 index range", n)
	}
	if cap(s.parent) < n {
		s.order = make([]int32, 0, n)
		s.parent = make([]int32, n)
		s.down = make([]int32, n)
		s.ups = make([]int32, n)
		s.flags = make([]uint8, n)
	}
	s.parent, s.down, s.ups, s.flags = s.parent[:n], s.down[:n], s.ups[:n], s.flags[:n]
	s.order = s.order[:0]
	return nil
}

// admit puts vertex v in the sweep.
func (s *Scratch) admit(v int32) {
	s.parent[v], s.down[v], s.ups[v] = -1, -1, 0
	s.order = append(s.order, v)
}

// sweep runs the descending sweep over the admitted vertices, where
// vals[v] is a vertex's value and neighbors(v, buf) yields the admitted
// vertices adjacent to v (it may fill and return buf, or return a slice
// of its own). Afterwards order is the sweep order and down/ups hold
// the fully augmented merge tree.
//
// The union-find root of a superlevel component is always its lowest
// swept vertex — each merge makes the vertex being swept the root — so
// the component's current lowest tree node needs no array of its own,
// and a neighbor whose component was already merged at v finds v and
// is skipped.
func (s *Scratch) sweep(vals []float64, neighbors func(v int32, buf []int32) []int32) {
	slices.SortFunc(s.order, func(a, b int32) int {
		if va, vb := vals[a], vals[b]; va != vb {
			if va > vb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	parent := s.parent
	for _, v := range s.order {
		parent[v] = v
		for _, u := range neighbors(v, s.nbuf[:0]) {
			if parent[u] < 0 {
				continue // not yet swept (below v)
			}
			r := u
			for parent[r] != r {
				parent[r] = parent[parent[r]]
				r = parent[r]
			}
			if r != v {
				parent[r] = v
				s.down[r] = v
				s.ups[v]++
			}
		}
	}
}

// tree materializes the swept vertices, which must be exactly the
// indices [0, n), as a Tree: node v gets id(v) and vals[v]. Ups are
// listed in ascending vertex order. The nodes share one backing array
// and the Ups lists another.
func (s *Scratch) tree(vals []float64, id func(v int32) int64) *Tree {
	n := len(s.order)
	nodes := make([]Node, n)
	upBuf := make([]*Node, 0, n)
	t := &Tree{Nodes: make(map[int64]*Node, n)}
	for v := range nodes {
		nd := &nodes[v]
		nd.ID, nd.Value = id(int32(v)), vals[v]
		t.Nodes[nd.ID] = nd
		if c := int(s.ups[v]); c > 0 {
			nd.Ups = upBuf[len(upBuf) : len(upBuf) : len(upBuf)+c]
			upBuf = upBuf[:len(upBuf)+c]
		}
	}
	for v := range nodes {
		nd := &nodes[v]
		if d := s.down[v]; d >= 0 {
			nd.Down = &nodes[d]
			nodes[d].Ups = append(nodes[d].Ups, nd)
		} else {
			t.Roots = append(t.Roots, nd)
		}
	}
	sortNodes(t.Roots)
	return t
}
