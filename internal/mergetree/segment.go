package mergetree

import (
	"cmp"
	"slices"
)

// Segmentation labels each vertex of an augmented merge tree with the
// feature (superlevel-set component) it belongs to at a threshold.
// Labels are the node id of the component's lowest vertex above the
// threshold, so they are stable across equivalent constructions.
type Segmentation struct {
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
	seg := &Segmentation{Labels: make(map[int64]int64)}
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
