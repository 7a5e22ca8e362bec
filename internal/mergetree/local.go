package mergetree

import (
	"fmt"
	"sort"

	"insitu/internal/grid"
)

// FromField computes the augmented merge tree of a scalar field over
// its box using 6-neighbor (face) adjacency. Vertex ids are global
// indices within the `global` box, so trees from different blocks of
// one domain share ids on shared vertices. This is the low-overhead
// in-core sweep run in-situ on each block.
func FromField(f *grid.Field, global grid.Box) *Tree {
	b := f.Box
	d := b.Dims()
	n := b.Size()
	verts := make([]vertexRef, n)
	for idx := 0; idx < n; idx++ {
		i, j, k := b.Point(idx)
		verts[idx] = vertexRef{id: grid.GlobalIndex(global, i, j, k), val: f.Data[idx]}
	}
	// Face adjacency expressed in local linear offsets.
	var nbuf [6]int
	neighbors := func(idx int) []int {
		i, j, k := b.Point(idx)
		out := nbuf[:0]
		if i > b.Lo[0] {
			out = append(out, idx-1)
		}
		if i < b.Hi[0]-1 {
			out = append(out, idx+1)
		}
		if j > b.Lo[1] {
			out = append(out, idx-d[0])
		}
		if j < b.Hi[1]-1 {
			out = append(out, idx+d[0])
		}
		if k > b.Lo[2] {
			out = append(out, idx-d[0]*d[1])
		}
		if k < b.Hi[2]-1 {
			out = append(out, idx+d[0]*d[1])
		}
		return out
	}
	return build(verts, neighbors)
}

// BoundaryPolicy selects which vertices, besides critical points, a
// reduced subtree retains so neighboring subtrees can be glued.
type BoundaryPolicy int

const (
	// KeepSharedBoundary retains every vertex the block shares with a
	// neighboring extended block (the one-point shell inside the block
	// plus the ghost layer). This is the provably sufficient
	// augmentation: gluing reduced subtrees reproduces the exact
	// global merge tree.
	KeepSharedBoundary BoundaryPolicy = iota
	// KeepCornersAndBoundaryMaxima retains only the sub-domain corners
	// and the maxima restricted to boundary components, the minimal
	// set the paper describes. Under this library's graph-gluing
	// scheme it is insufficient on some inputs, which the ablation
	// tests demonstrate; it is provided for that comparison.
	KeepCornersAndBoundaryMaxima
	// KeepNone performs no boundary augmentation. Gluing fails on any
	// feature spanning a block boundary; provided for ablation.
	KeepNone
)

// Subtree is the intermediate product of the in-situ stage: the
// reduced merge tree of one extended block, ready to be shipped to the
// staging area.
type Subtree struct {
	Rank  int      // producing rank
	Block grid.Box // the rank's owned block (without ghost layer)
	// Verts holds (id, value) pairs sorted in descending sweep order.
	Verts []SubtreeVert
	// Edges holds (hi, lo) id pairs sorted by descending sweep order
	// of the lower endpoint, the order the streaming aggregation
	// protocol requires for memory-bounded eviction.
	Edges []Arc
}

// SubtreeVert is one retained vertex of a reduced subtree. Degree is
// the number of subtree edges incident to the vertex within this
// block's stream; the in-transit stage uses it to detect when a vertex
// is finalized.
type SubtreeVert struct {
	ID     int64
	Value  float64
	Degree int
}

// LocalSubtree runs the full in-situ stage for one rank: extract the
// extended block (owned block grown by one ghost layer, clipped to the
// global domain) from the rank's field, sweep it, reduce it under the
// policy, and package the result. The field must cover the extended
// block; typically it is the rank's ghosted field.
func LocalSubtree(f *grid.Field, global, owned grid.Box, rank int, policy BoundaryPolicy) (*Subtree, error) {
	ext := owned.Grow(1).Intersect(global)
	if !f.Box.ContainsBox(ext) {
		return nil, fmt.Errorf("mergetree: field box %v does not cover extended block %v", f.Box, ext)
	}
	blockField := f
	if f.Box != ext {
		blockField = f.Extract(ext)
	}
	t := FromField(blockField, global)

	keep := keepFunc(t, global, owned, ext, policy)
	red := Reduce(t, keep)
	return packSubtree(red, rank, owned), nil
}

// keepFunc returns the vertex-retention predicate for a policy.
func keepFunc(t *Tree, global, owned, ext grid.Box, policy BoundaryPolicy) func(n *Node) bool {
	switch policy {
	case KeepNone:
		return func(n *Node) bool { return false }
	case KeepCornersAndBoundaryMaxima:
		corners := map[int64]bool{}
		for _, c := range owned.Corners() {
			corners[grid.GlobalIndex(global, c[0], c[1], c[2])] = true
		}
		return func(n *Node) bool {
			if corners[n.ID] {
				return true
			}
			// Maxima restricted to boundary components: boundary
			// vertices all of whose boundary neighbors are lower.
			i, j, k := grid.GlobalPoint(global, n.ID)
			if !ext.OnBoundary(i, j, k) {
				return false
			}
			return boundaryRestrictedMax(t, global, ext, n)
		}
	default: // KeepSharedBoundary
		interior := owned.Grow(-1)
		return func(n *Node) bool {
			i, j, k := grid.GlobalPoint(global, n.ID)
			return !interior.Contains(i, j, k)
		}
	}
}

// boundaryRestrictedMax reports whether node n, lying on the boundary
// of box ext, is a local maximum of the field restricted to that
// boundary.
func boundaryRestrictedMax(t *Tree, global, ext grid.Box, n *Node) bool {
	i, j, k := grid.GlobalPoint(global, n.ID)
	for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
		ni, nj, nk := i+d[0], j+d[1], k+d[2]
		if !ext.Contains(ni, nj, nk) || !ext.OnBoundary(ni, nj, nk) {
			continue
		}
		u := t.Nodes[grid.GlobalIndex(global, ni, nj, nk)]
		if u != nil && Above(u.Value, u.ID, n.Value, n.ID) {
			return false
		}
	}
	return true
}

// Reduce contracts every regular node for which keep returns false,
// yielding the reduced tree over critical points plus retained
// vertices. Roots, maxima and saddles are always kept.
func Reduce(t *Tree, keep func(n *Node) bool) *Tree {
	retained := func(n *Node) bool {
		return !n.IsRegular() || keep(n)
	}
	out := &Tree{Nodes: make(map[int64]*Node)}
	get := func(n *Node) *Node {
		m, ok := out.Nodes[n.ID]
		if !ok {
			m = &Node{ID: n.ID, Value: n.Value}
			out.Nodes[n.ID] = m
		}
		return m
	}
	for _, n := range t.Nodes {
		if !retained(n) {
			continue
		}
		m := get(n)
		// Walk down to the next retained node.
		d := n.Down
		for d != nil && !retained(d) {
			d = d.Down
		}
		if d != nil {
			dm := get(d)
			m.Down = dm
			dm.Ups = append(dm.Ups, m)
		} else if n.Down == nil {
			out.Roots = append(out.Roots, m)
		}
	}
	sortNodes(out.Roots)
	return out
}

// packSubtree converts a reduced tree into the wire-ordered Subtree.
func packSubtree(t *Tree, rank int, block grid.Box) *Subtree {
	st := &Subtree{Rank: rank, Block: block}
	deg := make(map[int64]int, len(t.Nodes))
	vals := make(map[int64]float64, len(t.Nodes))
	for _, n := range t.Nodes {
		vals[n.ID] = n.Value
		if n.Down != nil {
			st.Edges = append(st.Edges, Arc{Hi: n.ID, Lo: n.Down.ID})
			deg[n.ID]++
			deg[n.Down.ID]++
		}
	}
	for _, n := range t.Nodes {
		st.Verts = append(st.Verts, SubtreeVert{ID: n.ID, Value: n.Value, Degree: deg[n.ID]})
	}
	sort.Slice(st.Verts, func(i, j int) bool {
		return Above(st.Verts[i].Value, st.Verts[i].ID, st.Verts[j].Value, st.Verts[j].ID)
	})
	sort.Slice(st.Edges, func(i, j int) bool {
		a, b := st.Edges[i], st.Edges[j]
		return Above(vals[a.Lo], a.Lo, vals[b.Lo], b.Lo)
	})
	return st
}
