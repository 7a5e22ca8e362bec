package mergetree

import (
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
	seg := &Segmentation{Threshold: threshold, Labels: make(map[int64]int64)}
	memo := make(map[*Node]int64)
	var root func(n *Node) int64
	root = func(n *Node) int64 {
		if l, ok := memo[n]; ok {
			return l
		}
		var l int64
		if n.Down == nil || n.Down.Value < threshold {
			l = n.ID
		} else {
			l = root(n.Down)
		}
		memo[n] = l
		return l
	}
	for id, n := range t.Nodes {
		if n.Value >= threshold {
			seg.Labels[id] = root(n)
		}
	}
	return seg
}

// Feature summarizes one connected superlevel-set component.
type Feature struct {
	Label    int64
	Size     int     // number of member vertices
	MaxID    int64   // highest vertex
	MaxValue float64 // value at the highest vertex
}

// Features summarizes the segmentation's components, sorted by
// decreasing size then label.
func (s *Segmentation) Features(t *Tree) []Feature {
	agg := make(map[int64]*Feature)
	for id, label := range s.Labels {
		f, ok := agg[label]
		if !ok {
			f = &Feature{Label: label, MaxID: id, MaxValue: t.Nodes[id].Value}
			agg[label] = f
		}
		f.Size++
		v := t.Nodes[id].Value
		if Above(v, id, f.MaxValue, f.MaxID) {
			f.MaxID, f.MaxValue = id, v
		}
	}
	out := make([]Feature, 0, len(agg))
	for _, f := range agg {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Label < out[j].Label
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
