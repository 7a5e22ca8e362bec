package mergetree

import (
	"fmt"
	"slices"

	"insitu/internal/grid"
)

// FromField computes the augmented merge tree of a scalar field over
// its box using 6-neighbor (face) adjacency. Vertex ids are global
// indices within the `global` box, so trees from different blocks of
// one domain share ids on shared vertices. It is the block sweep the
// in-situ stage runs (Scratch.Subtree), materialized as a Tree for
// callers that want every vertex.
func FromField(f *grid.Field, global grid.Box) *Tree {
	var s Scratch
	if err := s.sweepBlock(f, f.Box); err != nil {
		panic(err) // a field of more than 2^31 points
	}
	return s.tree(f.Data, func(v int32) int64 {
		i, j, k := f.Box.Point(int(v))
		return grid.GlobalIndex(global, i, j, k)
	})
}

// Neighbor-mask bits of Scratch.flags: the face neighbors of a cell
// that lie inside the swept block. retainedBit is set by contract.
const (
	xLoBit uint8 = 1 << iota
	xHiBit
	yLoBit
	yHiBit
	zLoBit
	zHiBit
	retainedBit
)

// sweepBlock sweeps the cells of block, a sub-box of f.Box, where they
// lie: a vertex is a cell's offset into f.Data, its neighbors are
// strides away, and nothing is copied. Offsets ascend with global ids,
// so the sweep order is Above's. The scratch arrays span the field, so
// it should not be much larger than the block (a rank's ghosted field
// is its extended block, or a ghost plane more at a domain face).
func (s *Scratch) sweepBlock(f *grid.Field, block grid.Box) error {
	if err := s.grow(len(f.Data)); err != nil {
		return err
	}
	fd := f.Box.Dims()
	sy, sz := int32(fd[0]), int32(fd[0]*fd[1])
	for k := block.Lo[2]; k < block.Hi[2]; k++ {
		var plane uint8
		if k > block.Lo[2] {
			plane |= zLoBit
		}
		if k < block.Hi[2]-1 {
			plane |= zHiBit
		}
		for j := block.Lo[1]; j < block.Hi[1]; j++ {
			row := plane | xLoBit | xHiBit
			if j > block.Lo[1] {
				row |= yLoBit
			}
			if j < block.Hi[1]-1 {
				row |= yHiBit
			}
			first := int32(f.Box.Index(block.Lo[0], j, k))
			last := first + int32(block.Hi[0]-block.Lo[0]) - 1
			for v := first; v <= last; v++ {
				s.flags[v] = row
				s.admit(v)
			}
			s.flags[first] &^= xLoBit
			s.flags[last] &^= xHiBit
		}
	}
	s.sweep(f.Data, func(v int32, buf []int32) []int32 {
		m := s.flags[v]
		if m&xLoBit != 0 {
			buf = append(buf, v-1)
		}
		if m&xHiBit != 0 {
			buf = append(buf, v+1)
		}
		if m&yLoBit != 0 {
			buf = append(buf, v-sy)
		}
		if m&yHiBit != 0 {
			buf = append(buf, v+sy)
		}
		if m&zLoBit != 0 {
			buf = append(buf, v-sz)
		}
		if m&zHiBit != 0 {
			buf = append(buf, v+sz)
		}
		return buf
	})
	return nil
}

// BoundaryPolicy selects which vertices, besides critical points, a
// reduced subtree retains so neighboring subtrees can be glued.
type BoundaryPolicy int

const (
	// KeepSharedBoundary retains every vertex the block shares with a
	// neighboring extended block (the one-point shell inside the block
	// plus the ghost layer). Gluing reduced subtrees reproduces the
	// exact global merge tree; it is the reference KeepOverlapMaxima is
	// tested against.
	KeepSharedBoundary BoundaryPolicy = iota
	// KeepOverlapMaxima retains, for each face the block shares with a
	// neighbor, the local maxima of the field restricted to that
	// face's overlap slab: the extended block cut, across the face, to
	// the owned boundary layer and the ghost layer. Both neighbors
	// compute the same slab and pick the same vertices, and if their
	// components at some level meet in the slab they both keep the
	// slab component's highest vertex, so gluing still reproduces the
	// exact global merge tree. Faces on the domain boundary keep
	// nothing. It is the pipeline's policy.
	KeepOverlapMaxima
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

// LocalSubtree runs the full in-situ stage for one rank on a scratch
// of its own; see Scratch.Subtree, which a caller that sweeps every
// step uses directly.
func LocalSubtree(f *grid.Field, global, owned grid.Box, rank int, policy BoundaryPolicy) (*Subtree, error) {
	st, err := new(Scratch).Subtree(f, global, owned, rank, policy)
	if err != nil {
		return nil, err
	}
	out := *st // detach from the scratch, so the result does not pin its arrays
	return &out, nil
}

// Subtree runs the full in-situ stage for one rank: sweep the extended
// block (owned block grown by one ghost layer, clipped to the global
// domain) where it lies in the rank's field, contract the regular
// vertices the policy does not retain, and package the result. The
// field must cover the extended block; typically it is the rank's
// ghosted field, and is only read.
//
// The result lives in the scratch: it is valid until the next call on
// s, and a caller that keeps it copies it (or marshals it) first.
// Edges with the same lower endpoint are ordered by descending sweep
// position of the upper one, so the encoding is the same every run.
func (s *Scratch) Subtree(f *grid.Field, global, owned grid.Box, rank int, policy BoundaryPolicy) (*Subtree, error) {
	ext := owned.Grow(1).Intersect(global)
	if !f.Box.ContainsBox(ext) {
		return nil, fmt.Errorf("mergetree: field box %v does not cover extended block %v", f.Box, ext)
	}
	if err := s.sweepBlock(f, ext); err != nil {
		return nil, err
	}
	keep := keeper{policy: policy, f: f, interior: owned.Grow(-1)}
	if policy == KeepOverlapMaxima {
		keep.overlapSlabs(global, owned, ext)
	}
	return s.pack(rank, owned, keep.retains, func(v int32) (int64, float64) {
		i, j, k := f.Box.Point(int(v))
		return grid.GlobalIndex(global, i, j, k), f.Data[v]
	}), nil
}

// contract keeps the swept vertices that are critical or that retains
// accepts and moves them, still in sweep order, to the front of order;
// it returns them and how many arcs join them. Each kept vertex's down
// becomes the next kept vertex below it, and parent (the union-find is
// done with) counts the kept arcs arriving from above. Walks only
// cross contracted vertices, whose down pointers are left alone.
func (s *Scratch) contract(retains func(v int32) bool) (kept []int32, arcs int) {
	m := 0
	for _, v := range s.order {
		s.flags[v] &^= retainedBit
		if s.ups[v] == 1 && s.down[v] >= 0 && !retains(v) {
			continue // regular and not kept: contracted
		}
		s.flags[v] |= retainedBit
		s.parent[v] = 0
		s.order[m] = v
		m++
	}
	kept = s.order[:m]
	for _, v := range kept {
		d := s.down[v]
		for d >= 0 && s.flags[d]&retainedBit == 0 {
			d = s.down[d]
		}
		s.down[v] = d
		if d >= 0 {
			s.parent[d]++
			arcs++
		}
	}
	return kept, arcs
}

// pack contracts the swept vertices (see contract) and packages what
// is left as the scratch's Subtree of rank over block; vertex(v) gives
// a vertex's id and value. Verts go out in sweep order, Edges grouped
// by lower endpoint in sweep order and, within a group, by descending
// sweep position of the upper endpoint, so the encoding is the same
// every run.
func (s *Scratch) pack(rank int, block grid.Box, retains func(v int32) bool, vertex func(v int32) (int64, float64)) *Subtree {
	kept, edges := s.contract(retains)
	st := &s.st
	st.Rank, st.Block = rank, block
	st.Verts = slices.Grow(st.Verts[:0], len(kept))[:len(kept)]
	st.Edges = slices.Grow(st.Edges[:0], edges)[:edges]
	// Each vertex claims the run of Edges its arriving arcs fill:
	// parent turns from a count into the run's cursor, ups into the
	// vertex's position in Verts.
	next := int32(0)
	for p, v := range kept {
		id, val := vertex(v)
		deg := int(s.parent[v])
		if s.down[v] >= 0 {
			deg++
		}
		st.Verts[p] = SubtreeVert{ID: id, Value: val, Degree: deg}
		s.ups[v] = int32(p)
		s.parent[v], next = next, next+s.parent[v]
	}
	for p, v := range kept {
		if d := s.down[v]; d >= 0 {
			st.Edges[s.parent[d]] = Arc{Hi: st.Verts[p].ID, Lo: st.Verts[s.ups[d]].ID}
			s.parent[d]++
		}
	}
	return st
}

// keeper evaluates a BoundaryPolicy on the cells of one swept block.
type keeper struct {
	policy   BoundaryPolicy
	f        *grid.Field
	interior grid.Box
	slabs    [6]grid.Box // KeepOverlapMaxima: one per shared face
	nslabs   int
}

// overlapSlabs sets the overlap slab of each face of owned that a
// neighbor shares: ext cut, across the face, to the last owned layer
// and the ghost layer beyond it. The neighbor's slab is the same box.
func (kp *keeper) overlapSlabs(global, owned, ext grid.Box) {
	for d := 0; d < 3; d++ {
		for _, at := range [2]int{owned.Lo[d], owned.Hi[d]} {
			if at == global.Lo[d] || at == global.Hi[d] {
				continue // a domain face: no neighbor
			}
			slab := ext
			slab.Lo[d], slab.Hi[d] = at-1, at+1
			kp.slabs[kp.nslabs] = slab
			kp.nslabs++
		}
	}
}

// retains reports whether the policy keeps the vertex at offset v of
// the field although it is regular.
func (kp *keeper) retains(v int32) bool {
	i, j, k := kp.f.Box.Point(int(v))
	switch kp.policy {
	case KeepNone:
		return false
	case KeepOverlapMaxima:
		if kp.interior.Contains(i, j, k) {
			return false // every slab lies in the shell
		}
		for _, slab := range kp.slabs[:kp.nslabs] {
			if slab.Contains(i, j, k) && kp.slabMax(slab, v, i, j, k) {
				return true
			}
		}
		return false
	default: // KeepSharedBoundary
		return !kp.interior.Contains(i, j, k)
	}
}

// slabMax reports whether the vertex at offset v, cell (i, j, k), is
// above its face neighbors inside slab. Offsets ascend with global ids,
// so the tie-break is the one a neighbor's sweep makes.
func (kp *keeper) slabMax(slab grid.Box, v int32, i, j, k int) bool {
	val := kp.f.Data[v]
	for _, d := range [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
		ni, nj, nk := i+d[0], j+d[1], k+d[2]
		if !slab.Contains(ni, nj, nk) {
			continue
		}
		if u := kp.f.Box.Index(ni, nj, nk); Above(kp.f.Data[u], int64(u), val, int64(v)) {
			return false
		}
	}
	return true
}

// Reduce contracts every regular node whose id keep does not accept (a
// nil keep accepts none), yielding a new tree over the critical points
// plus the kept vertices. Roots, maxima and saddles are always kept. It
// is the critical-point view the offline tools print and the tests
// compare; the pipeline reduces with pack instead.
func Reduce(t *Tree, keep func(id int64) bool) *Tree {
	var s Scratch
	if err := s.load(t); err != nil {
		panic(err) // a tree of more than 2^31 nodes
	}
	kept, _ := s.contract(func(v int32) bool { return keep != nil && keep(t.IDs[v]) })
	out := &Tree{IDs: make([]int64, len(kept)), Values: make([]float64, len(kept)), Down: make([]int32, len(kept))}
	for p, v := range kept {
		s.ups[v] = int32(p) // the node's position in out
		out.IDs[p], out.Values[p] = t.IDs[v], t.Values[v]
	}
	for p, v := range kept {
		out.Down[p] = -1
		if d := s.down[v]; d >= 0 {
			out.Down[p] = s.ups[d]
		}
	}
	return out
}
