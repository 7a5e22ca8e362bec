package mergetree

import (
	"fmt"
	"math"
	"slices"
)

// Scratch holds the flat per-vertex arrays of one descending sweep.
// Vertices are int32 indices into a caller-defined value array (the
// cells of a field, the sorted ids of a graph, the nodes of a Tree);
// index order must be id order, so ties in value break the way Above
// breaks them. The same arrays are the work space of the tree passes
// that follow a glue (Simplify, Features). A Scratch grows to the
// largest block or tree it has seen and is reused, not freed, between
// uses: a stage that runs every step allocates nothing in it after the
// first. It is not safe for concurrent use.
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

// tree materializes the swept vertices as a new Tree: the vertex at
// sweep position r becomes node r, with id(v) and vals[v].
func (s *Scratch) tree(vals []float64, id func(v int32) int64) *Tree {
	n := len(s.order)
	t := &Tree{IDs: make([]int64, n), Values: make([]float64, n), Down: make([]int32, n)}
	for r, v := range s.order {
		s.parent[v] = int32(r) // the union-find is done with
		t.IDs[r], t.Values[r] = id(v), vals[v]
	}
	for r, v := range s.order {
		t.Down[r] = -1
		if d := s.down[v]; d >= 0 {
			t.Down[r] = s.parent[d]
		}
	}
	return t
}

// load puts the nodes of t in the sweep, in t's order, with t's arcs:
// afterwards down/ups describe t exactly as a sweep would have left
// them, so what runs on a sweep runs on a tree.
func (s *Scratch) load(t *Tree) error {
	if err := s.grow(t.Len()); err != nil {
		return err
	}
	for i := range t.Down {
		s.admit(int32(i))
	}
	for i, d := range t.Down {
		s.down[i] = d
		if d >= 0 {
			s.ups[d]++
		}
	}
	return nil
}
