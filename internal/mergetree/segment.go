package mergetree

import (
	"cmp"
	"slices"
	"sort"

	"insitu/internal/grid"
)

// Segmentation labels each vertex of an augmented merge tree with the
// feature (superlevel-set component) it belongs to at a threshold.
// Labels are the node id of the component's lowest vertex above the
// threshold, so they are stable across equivalent constructions.
type Segmentation struct {
	Threshold float64
	// Labels maps vertex id -> component label. Vertices below the
	// threshold are absent.
	Labels map[int64]int64
}

// Segment computes the threshold segmentation encoded by the merge
// tree: every vertex with value >= threshold is assigned to the
// component root reached by walking down while staying at or above the
// threshold. This is the "ensemble of threshold-based segmentations"
// use of merge trees.
func Segment(t *Tree, threshold float64) *Segmentation {
	var s Scratch
	label := s.labels(t, threshold)
	seg := &Segmentation{Threshold: threshold, Labels: make(map[int64]int64)}
	for i, l := range label {
		if t.Values[i] >= threshold {
			seg.Labels[t.IDs[i]] = t.IDs[l]
		}
	}
	return seg
}

// labels returns, in s.parent, the node each node of t reaches by
// walking down while staying at or above the threshold: its component
// label, meaningful for the nodes at or above the threshold. Nodes are
// in sweep order, so walking them backwards labels a node's down first.
func (s *Scratch) labels(t *Tree, threshold float64) []int32 {
	if err := s.grow(t.Len()); err != nil {
		panic(err) // a tree of more than 2^31 nodes
	}
	label := s.parent
	for i := t.Len() - 1; i >= 0; i-- {
		if d := t.Down[i]; d < 0 || t.Values[d] < threshold {
			label[i] = int32(i)
		} else {
			label[i] = label[d]
		}
	}
	return label
}

// Feature summarizes one connected superlevel-set component of a tree.
// Label and Size count and name tree nodes, not grid cells: on a
// reduced or glued tree they follow the retained set (the boundary
// policy), while MaxID and MaxValue, a critical point, do not.
type Feature struct {
	Label    int64   // the component's lowest node at or above the threshold
	Size     int     // number of member nodes
	MaxID    int64   // highest vertex
	MaxValue float64 // value at the highest vertex
}

// Features summarizes the components Segment(t, threshold) labels,
// sorted by decreasing size then label, on a scratch of its own; see
// Scratch.Features.
func Features(t *Tree, threshold float64) []Feature {
	return new(Scratch).Features(t, threshold)
}

// Features summarizes the components Segment(t, threshold) labels,
// sorted by decreasing size then label, without building the label
// map: only the result is allocated.
func (s *Scratch) Features(t *Tree, threshold float64) []Feature {
	label := s.labels(t, threshold)
	at := s.down // a label node's position in out, -1 before its first member
	n := 0
	for i, l := range label {
		at[i] = -1
		if int(l) == i && t.Values[i] >= threshold {
			n++ // one label node per component
		}
	}
	out := make([]Feature, 0, n)
	for i, l := range label {
		if !(t.Values[i] >= threshold) {
			continue
		}
		if at[l] < 0 {
			// Members come in sweep order: the first is the highest.
			at[l] = int32(len(out))
			out = append(out, Feature{Label: t.IDs[l], MaxID: t.IDs[i], MaxValue: t.Values[i]})
		}
		out[at[l]].Size++
	}
	slices.SortFunc(out, func(a, b Feature) int {
		if a.Size != b.Size {
			return cmp.Compare(b.Size, a.Size)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return out
}

// SegmentField computes the same threshold segmentation directly from
// a field with union-find, without building a tree. It is the cheap
// in-situ path used for feature tracking, and the reference the
// tree-based segmentation is validated against. Labels use the same
// convention (id of the component's lowest... highest-priority vertex
// is not needed: the lowest vertex at or above the threshold).
func SegmentField(f *grid.Field, global grid.Box, threshold float64) *Segmentation {
	b := f.Box
	d := b.Dims()
	n := b.Size()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	in := func(idx int) bool { return f.Data[idx] >= threshold }
	for idx := 0; idx < n; idx++ {
		if !in(idx) {
			continue
		}
		parent[idx] = int32(idx)
		i, j, k := b.Point(idx)
		// Union with already-initialized lower-index neighbors.
		if i > b.Lo[0] && parent[idx-1] >= 0 {
			union(parent, find, int32(idx), int32(idx-1))
		}
		if j > b.Lo[1] && parent[idx-d[0]] >= 0 {
			union(parent, find, int32(idx), int32(idx-d[0]))
		}
		if k > b.Lo[2] && parent[idx-d[0]*d[1]] >= 0 {
			union(parent, find, int32(idx), int32(idx-d[0]*d[1]))
		}
	}
	// Component label: the sweep-lowest member (matching Segment's
	// "lowest vertex above threshold" convention).
	lowest := make(map[int32]int64)
	lowVal := make(map[int32]float64)
	for idx := 0; idx < n; idx++ {
		if parent[idx] < 0 {
			continue
		}
		r := find(int32(idx))
		i, j, k := b.Point(idx)
		id := grid.GlobalIndex(global, i, j, k)
		v := f.Data[idx]
		if cur, ok := lowest[r]; !ok || Above(lowVal[r], cur, v, id) {
			lowest[r] = id
			lowVal[r] = v
		}
	}
	seg := &Segmentation{Threshold: threshold, Labels: make(map[int64]int64)}
	for idx := 0; idx < n; idx++ {
		if parent[idx] < 0 {
			continue
		}
		r := find(int32(idx))
		i, j, k := b.Point(idx)
		seg.Labels[grid.GlobalIndex(global, i, j, k)] = lowest[r]
	}
	return seg
}

func union(parent []int32, find func(int32) int32, a, b int32) {
	ra, rb := find(a), find(b)
	if ra != rb {
		parent[ra] = rb
	}
}

// Match records the voxel overlap between a feature at one timestep
// and a feature at the next — the connectivity indicator of Fig. 1
// that is lost when the output cadence exceeds the feature lifetime.
type Match struct {
	PrevLabel int64
	NextLabel int64
	Overlap   int
}

// Track computes all overlap matches between two segmentations of the
// same domain, sorted by decreasing overlap.
func Track(prev, next *Segmentation) []Match {
	type key struct{ p, n int64 }
	counts := make(map[key]int)
	for id, pl := range prev.Labels {
		if nl, ok := next.Labels[id]; ok {
			counts[key{pl, nl}]++
		}
	}
	out := make([]Match, 0, len(counts))
	for k, c := range counts {
		out = append(out, Match{PrevLabel: k.p, NextLabel: k.n, Overlap: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		if out[i].PrevLabel != out[j].PrevLabel {
			return out[i].PrevLabel < out[j].PrevLabel
		}
		return out[i].NextLabel < out[j].NextLabel
	})
	return out
}

// TrackChain follows one feature across a sequence of segmentations by
// greatest overlap, returning the label at each step; the chain stops
// (returning what it has) when the feature vanishes. It reproduces the
// Fig. 1 experiment of tracking a structure across consecutive
// analysis outputs.
func TrackChain(segs []*Segmentation, start int64) []int64 {
	chain := []int64{start}
	cur := start
	for i := 1; i < len(segs); i++ {
		matches := Track(segs[i-1], segs[i])
		next := int64(-1)
		best := 0
		for _, m := range matches {
			if m.PrevLabel == cur && m.Overlap > best {
				best = m.Overlap
				next = m.NextLabel
			}
		}
		if next < 0 {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	return chain
}
