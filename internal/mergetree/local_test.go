package mergetree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"insitu/internal/grid"
)

// referenceSubtree is the in-situ stage as a chain of whole-tree
// steps: copy the extended block out, build the Tree, reduce it with a
// keep function over vertex ids, pack by sorting. Scratch.Subtree is
// tested against it.
func referenceSubtree(f *grid.Field, global, owned grid.Box, rank int, policy BoundaryPolicy) *Subtree {
	ext := owned.Grow(1).Intersect(global)
	t := FromField(f.Extract(ext), global)
	vals := make(map[int64]float64, t.Len())
	for i, id := range t.IDs {
		vals[id] = t.Values[i]
	}
	var keep func(id int64) bool
	switch policy {
	case KeepNone:
		keep = func(int64) bool { return false }
	case KeepOverlapMaxima:
		var slabs []grid.Box
		for d := 0; d < 3; d++ {
			if owned.Lo[d] > global.Lo[d] {
				slab := ext
				slab.Lo[d], slab.Hi[d] = owned.Lo[d]-1, owned.Lo[d]+1
				slabs = append(slabs, slab)
			}
			if owned.Hi[d] < global.Hi[d] {
				slab := ext
				slab.Lo[d], slab.Hi[d] = owned.Hi[d]-1, owned.Hi[d]+1
				slabs = append(slabs, slab)
			}
		}
		keep = func(id int64) bool {
			i, j, k := grid.GlobalPoint(global, id)
			for _, slab := range slabs {
				if !slab.Contains(i, j, k) {
					continue
				}
				top := true
				for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
					ni, nj, nk := i+d[0], j+d[1], k+d[2]
					if u := grid.GlobalIndex(global, ni, nj, nk); slab.Contains(ni, nj, nk) && Above(vals[u], u, vals[id], id) {
						top = false
					}
				}
				if top {
					return true
				}
			}
			return false
		}
	default:
		interior := owned.Grow(-1)
		keep = func(id int64) bool {
			i, j, k := grid.GlobalPoint(global, id)
			return !interior.Contains(i, j, k)
		}
	}
	return packSubtree(Reduce(t, keep), rank, owned)
}

// packSubtree is the reference pack: a reduced tree's vertices and
// arcs put in wire order by sorting, independently of Scratch.pack.
func packSubtree(t *Tree, rank int, block grid.Box) *Subtree {
	st := &Subtree{Rank: rank, Block: block}
	deg := make(map[int64]int, t.Len())
	vals := make(map[int64]float64, t.Len())
	for i, d := range t.Down {
		vals[t.IDs[i]] = t.Values[i]
		if d >= 0 {
			st.Edges = append(st.Edges, Arc{Hi: t.IDs[i], Lo: t.IDs[d]})
			deg[t.IDs[i]]++
			deg[t.IDs[d]]++
		}
	}
	for i, id := range t.IDs {
		st.Verts = append(st.Verts, SubtreeVert{ID: id, Value: t.Values[i], Degree: deg[id]})
	}
	sort.Slice(st.Verts, func(i, j int) bool {
		return Above(st.Verts[i].Value, st.Verts[i].ID, st.Verts[j].Value, st.Verts[j].ID)
	})
	sort.Slice(st.Edges, func(i, j int) bool {
		a, b := st.Edges[i], st.Edges[j]
		if a.Lo != b.Lo {
			return Above(vals[a.Lo], a.Lo, vals[b.Lo], b.Lo)
		}
		return Above(vals[a.Hi], a.Hi, vals[b.Hi], b.Hi)
	})
	return st
}

// tiedField draws values from a handful of levels, so the sweep order
// leans on the id tie-break everywhere.
func tiedField(rng *rand.Rand, b grid.Box) *grid.Field {
	f := grid.NewField("f", b)
	for i := range f.Data {
		f.Data[i] = float64(rng.Intn(5))
	}
	return f
}

// checkSubtree compares got with the reference chain: the same vertex
// multiset with degrees, the same edge set, and the wire order the
// streaming glue relies on.
func checkSubtree(t *testing.T, what string, got, want *Subtree) {
	t.Helper()
	if got.Rank != want.Rank || got.Block != want.Block {
		t.Fatalf("%s: rank/block %d %v, want %d %v", what, got.Rank, got.Block, want.Rank, want.Block)
	}
	if len(got.Verts) != len(want.Verts) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d verts %d edges, want %d and %d", what, len(got.Verts), len(got.Edges), len(want.Verts), len(want.Edges))
	}
	vals := make(map[int64]float64, len(got.Verts))
	for i, v := range got.Verts {
		// Both lists are strictly descending, so equal multisets are
		// equal sequences.
		if v != want.Verts[i] {
			t.Fatalf("%s: vertex %d is %+v, want %+v", what, i, v, want.Verts[i])
		}
		if i > 0 && !Above(got.Verts[i-1].Value, got.Verts[i-1].ID, v.Value, v.ID) {
			t.Fatalf("%s: vertices %d and %d are not strictly descending", what, i-1, i)
		}
		vals[v.ID] = v.Value
	}
	wantEdges := make(map[Arc]bool, len(want.Edges))
	for _, e := range want.Edges {
		wantEdges[e] = true
	}
	for i, e := range got.Edges {
		if !wantEdges[e] {
			t.Fatalf("%s: edge %+v is not in the reference", what, e)
		}
		delete(wantEdges, e) // a repeated edge is not in the set twice
		if i > 0 {
			p := got.Edges[i-1]
			if Above(vals[e.Lo], e.Lo, vals[p.Lo], p.Lo) {
				t.Fatalf("%s: edge %d's lower endpoint is above edge %d's", what, i, i-1)
			}
		}
	}
}

// TestSubtreeMatchesTreeChain is the property behind the array sweep:
// on fuzzed fields, over every decomposition shape and boundary
// policy, Scratch.Subtree read in place from a larger field equals the
// Extract -> FromField -> Reduce -> packSubtree chain, and one scratch
// reused across blocks of different shapes behaves like a fresh one.
func TestSubtreeMatchesTreeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	decomps := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}}
	policies := []BoundaryPolicy{KeepSharedBoundary, KeepOverlapMaxima, KeepNone}
	globals := []grid.Box{grid.NewBox(9, 8, 6), grid.NewBox(11, 7, 1), grid.NewBox(6, 6, 7)}
	var shared Scratch
	for trial := 0; trial < 6; trial++ {
		for _, global := range globals {
			var f *grid.Field
			switch trial % 3 {
			case 0:
				f = randomField(rng, global)
			case 1:
				f = tiedField(rng, global)
			default:
				f = smoothField(global, rng.Float64()*3)
			}
			for _, pd := range decomps {
				if pd[2] > global.Dims()[2] {
					continue
				}
				dc, err := grid.NewDecomp(global, pd[0], pd[1], pd[2])
				if err != nil {
					t.Fatal(err)
				}
				for rank := 0; rank < dc.Ranks(); rank++ {
					owned := dc.Block(rank)
					ghosted := f.Extract(owned.Grow(1).Intersect(global))
					for _, policy := range policies {
						what := fmt.Sprintf("trial %d global %v decomp %v rank %d policy %d", trial, global, pd, rank, policy)
						want := referenceSubtree(f, global, owned, rank, policy)
						got, err := shared.Subtree(f, global, owned, rank, policy)
						if err != nil {
							t.Fatal(err)
						}
						checkSubtree(t, what+" (in place)", got, want)
						first := got.AppendMarshal(nil)
						again, err := shared.Subtree(f, global, owned, rank, policy)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(first, again.AppendMarshal(nil)) {
							t.Fatalf("%s: two sweeps on one scratch marshal differently", what)
						}
						fresh, err := LocalSubtree(ghosted, global, owned, rank, policy)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(first, fresh.AppendMarshal(nil)) {
							t.Fatalf("%s: the ghosted block on a fresh scratch marshals differently from the global field on a used one", what)
						}
					}
				}
			}
		}
	}
}

// TestSubtreeOnWarmScratchAllocatesNothing is the flat half of the
// in-situ guard: once a scratch has grown to the rank's block, a sweep
// and its pack into a caller's buffer allocate nothing.
func TestSubtreeOnWarmScratchAllocatesNothing(t *testing.T) {
	global := grid.NewBox(24, 16, 12)
	dc, err := grid.NewDecomp(global, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	owned := dc.Block(0)
	f := smoothField(global, 0.4).Extract(owned.Grow(1).Intersect(global))
	var s Scratch
	st, err := s.Subtree(f, global, owned, 0, KeepSharedBoundary)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, st.MarshalSize())
	allocs := testing.AllocsPerRun(20, func() {
		st, err := s.Subtree(f, global, owned, 0, KeepSharedBoundary)
		if err != nil {
			t.Fatal(err)
		}
		buf = st.AppendMarshal(buf[:0])
	})
	if allocs > 0 {
		t.Fatalf("a sweep on a warm scratch allocates %v objects, want 0", allocs)
	}
}

func TestSubtreeRejectsUncoveredBlock(t *testing.T) {
	global := grid.NewBox(8, 8, 4)
	owned := grid.Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{4, 8, 4}}
	f := grid.NewField("f", owned) // lacks the ghost layer at x = 4
	if _, err := LocalSubtree(f, global, owned, 0, KeepSharedBoundary); err == nil {
		t.Fatal("want an error for a field that does not cover the extended block")
	}
}

// hostileCount returns a real subtree encoding whose vertex count is
// replaced by nv.
func hostileCount(nv uint64) []byte {
	st := &Subtree{Verts: make([]SubtreeVert, 3), Edges: []Arc{{Hi: 1, Lo: 2}}}
	p := st.AppendMarshal(nil) // 124 bytes
	binary.LittleEndian.PutUint64(p[4+6*8:], nv)
	return p
}

// overflowCounts are vertex counts that passed the old 20*nv+8 length
// check by wrapping around and died in make.
var overflowCounts = []uint64{0x0CCCCCCCCCCCCCCD, 1 << 63, math.MaxUint64}

func TestUnmarshalSubtreeOverflowingCounts(t *testing.T) {
	for _, nv := range overflowCounts {
		if _, err := new(Subtree).Unmarshal(hostileCount(nv)); !errors.Is(err, ErrCorruptPayload) {
			t.Errorf("vertex count %#x: error %v, want ErrCorruptPayload", nv, err)
		}
	}
	st := &Subtree{Verts: make([]SubtreeVert, 1)}
	p := st.AppendMarshal(nil)
	binary.LittleEndian.PutUint64(p[len(p)-8:], 1<<60) // the edge count
	if _, err := new(Subtree).Unmarshal(p); !errors.Is(err, ErrCorruptPayload) {
		t.Errorf("edge count 1<<60: error %v, want ErrCorruptPayload", err)
	}
	fp := AppendFeaturePartials(nil, nil)
	binary.LittleEndian.PutUint32(fp, math.MaxUint32)
	if _, err := UnmarshalFeaturePartials(fp); !errors.Is(err, ErrCorruptPayload) {
		t.Errorf("feature partial count 2^32-1: error %v, want ErrCorruptPayload", err)
	}
}

// FuzzUnmarshalSubtree: arbitrary bytes decode to a typed error or to a
// subtree whose encoding is the bytes it was read from, followed by the
// bytes Unmarshal returns, never a panic.
func FuzzUnmarshalSubtree(f *testing.F) {
	global := grid.NewBox(6, 5, 4)
	real, err := LocalSubtree(smoothField(global, 0.2), global, global, 3, KeepSharedBoundary)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real.AppendMarshal(nil))
	for _, nv := range overflowCounts {
		f.Add(hostileCount(nv))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		var st Subtree
		rest, err := st.Unmarshal(p)
		if err != nil {
			if !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		enc := st.AppendMarshal(nil)
		if len(enc) > len(p) || !bytes.Equal(enc, p[:len(enc)]) {
			t.Fatalf("decoded %d verts %d edges from %d bytes, but they marshal to %d different bytes", len(st.Verts), len(st.Edges), len(p), len(enc))
		}
		if !bytes.Equal(rest, p[len(enc):]) {
			t.Fatalf("Unmarshal returned %d bytes after a %d-byte subtree of a %d-byte payload", len(rest), len(enc), len(p))
		}
	})
}
