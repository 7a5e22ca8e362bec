package mergetree

import (
	"encoding/binary"
	"fmt"
	"math"

	"insitu/internal/grid"
	"insitu/internal/stats"
)

// Feature-based statistics combine the merge-tree segmentation with
// the single-pass statistics engine: descriptive statistics of one
// variable conditioned on the superlevel-set features of another (for
// example, heat-release statistics per burning region). The paper's
// conclusion proposes exactly this combination; this file implements
// it in the same hybrid decomposition as the other analyses.
//
// In-situ, each rank segments its extended block, picks each local
// component's sweep-highest member as its representative (always a
// local maximum of the block, hence always retained in the reduced
// subtree; LocalComponents), and accumulates the conditioned
// variable's moments over the component's *owned* voxels. In-transit, the representative is
// mapped to its global feature through the glued tree's segmentation,
// and partial moments with the same global feature combine.

// FeaturePartial is one rank's contribution to one feature's
// statistics.
type FeaturePartial struct {
	Rep     int64 // id of the local component's highest vertex
	Moments stats.Moments
}

// LocalComponents segments the extended block of f — the owned box
// grown by one cell, clipped to global — at the threshold and maps
// every owned voxel of a superlevel component to the component's
// representative: its sweep-highest member, a local maximum of the
// block and so a vertex of the rank's KeepOverlapMaxima subtree, which
// the in-transit stage resolves against the glued tree. f must cover
// the extended block. Feature statistics and feature tracking label
// their local components through it.
func LocalComponents(f *grid.Field, global, owned grid.Box, threshold float64) (map[int64]int64, error) {
	ext := owned.Grow(1).Intersect(global)
	if !f.Box.ContainsBox(ext) {
		return nil, fmt.Errorf("mergetree: field does not cover extended block %v", ext)
	}
	var s Scratch
	if err := s.sweepBlock(f, ext); err != nil {
		return nil, err
	}
	// Walking the sweep up labels each vertex with its component's
	// lowest member at or above the threshold, as Segment does; the
	// last member it meets is the component's highest.
	label, rep := s.parent, s.ups // the union-find is done with
	for r := len(s.order) - 1; r >= 0; r-- {
		v := s.order[r]
		if d := s.down[v]; d < 0 || !(f.Data[d] >= threshold) {
			label[v] = v
		} else {
			label[v] = label[d]
		}
		rep[label[v]] = v
	}
	id := func(v int32) int64 {
		i, j, k := f.Box.Point(int(v))
		return grid.GlobalIndex(global, i, j, k)
	}
	out := make(map[int64]int64)
	for _, v := range s.order {
		if f.Data[v] >= threshold && owned.Contains(f.Box.Point(int(v))) {
			out[id(v)] = id(rep[label[v]])
		}
	}
	return out, nil
}

// LocalFeatureStats runs the in-situ side for one rank: label the
// owned voxels of `segVar`'s superlevel components at the threshold
// (LocalComponents) and accumulate `cond` over each component's owned
// voxels. segVar must cover the extended block, cond the owned box.
func LocalFeatureStats(segVar, cond *grid.Field, global, owned grid.Box, threshold float64) ([]FeaturePartial, error) {
	if !cond.Box.ContainsBox(owned) {
		return nil, fmt.Errorf("mergetree: conditioned field does not cover owned block %v", owned)
	}
	reps, err := LocalComponents(segVar, global, owned, threshold)
	if err != nil {
		return nil, err
	}
	// Owned-voxel moments per component, accumulated in grid order and
	// emitted in first-seen order — never map order — so the
	// floating-point sums and the payload bytes are the same every run.
	acc := make(map[int64]*stats.Moments)
	var order []int64
	for k := owned.Lo[2]; k < owned.Hi[2]; k++ {
		for j := owned.Lo[1]; j < owned.Hi[1]; j++ {
			for i := owned.Lo[0]; i < owned.Hi[0]; i++ {
				rep, ok := reps[grid.GlobalIndex(global, i, j, k)]
				if !ok {
					continue
				}
				m, seen := acc[rep]
				if !seen {
					m = stats.NewMoments()
					acc[rep] = m
					order = append(order, rep)
				}
				m.Update(cond.At(i, j, k))
			}
		}
	}
	out := make([]FeaturePartial, 0, len(order))
	for _, rep := range order {
		out = append(out, FeaturePartial{Rep: rep, Moments: *acc[rep]})
	}
	return out, nil
}

// FeatureStat is one global feature's conditioned statistics.
type FeatureStat struct {
	Feature int64 // global segmentation label
	MaxID   int64 // the feature's highest vertex
	Stats   stats.Derived
}

// GlobalFeatureStats runs the in-transit side: given the glued global
// tree and every rank's partials, map each representative to its
// global feature and combine.
func GlobalFeatureStats(tree *Tree, threshold float64, partials [][]FeaturePartial) ([]FeatureStat, error) {
	seg := Segment(tree, threshold)
	feats := Features(tree, threshold)
	maxOf := make(map[int64]int64, len(feats))
	for _, f := range feats {
		maxOf[f.Label] = f.MaxID
	}
	acc := make(map[int64]*stats.Moments)
	for _, ps := range partials {
		for _, p := range ps {
			label, ok := seg.Labels[p.Rep]
			if !ok {
				return nil, fmt.Errorf("mergetree: representative %d not in global segmentation (threshold mismatch or missing boundary augmentation?)", p.Rep)
			}
			m, ok2 := acc[label]
			if !ok2 {
				m = stats.NewMoments()
				acc[label] = m
			}
			mm := p.Moments
			m.Combine(&mm)
		}
	}
	out := make([]FeatureStat, 0, len(acc))
	for label, m := range acc {
		out = append(out, FeatureStat{Feature: label, MaxID: maxOf[label], Stats: stats.Derive(m)})
	}
	sortFeatureStats(out)
	return out, nil
}

func sortFeatureStats(fs []FeatureStat) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && less(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func less(a, b FeatureStat) bool {
	if a.Stats.N != b.Stats.N {
		return a.Stats.N > b.Stats.N
	}
	return a.Feature < b.Feature
}

// Wire format for a slice of FeaturePartial: u32 count, then per item
// (i64 rep, i64 n, 6 x f64 moments fields), 4+64*len bytes. A
// feature-statistics payload carries it after the rank's subtree.

// AppendFeaturePartials appends the encoding of the in-situ result to
// dst and returns the extended slice.
func AppendFeaturePartials(dst []byte, ps []FeaturePartial) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		m := p.Moments
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Rep))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.N))
		for _, f := range [...]float64{m.Min, m.Max, m.Mean, m.M2, m.M3, m.M4} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// UnmarshalFeaturePartials reverses AppendFeaturePartials; bytes after
// the partials are ignored.
func UnmarshalFeaturePartials(p []byte) ([]FeaturePartial, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: feature partials too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	count := binary.LittleEndian.Uint32(p[:4])
	p = p[4:]
	const rec = 8 * 8
	if uint64(count) > uint64(len(p))/rec {
		return nil, fmt.Errorf("%w: %d feature partials in %d bytes", ErrCorruptPayload, count, len(p))
	}
	n := int(count)
	out := make([]FeaturePartial, n)
	for i := 0; i < n; i++ {
		out[i].Rep = int64(binary.LittleEndian.Uint64(p[:8]))
		out[i].Moments.N = int64(binary.LittleEndian.Uint64(p[8:16]))
		m := &out[i].Moments
		for j, f := range []*float64{&m.Min, &m.Max, &m.Mean, &m.M2, &m.M3, &m.M4} {
			*f = math.Float64frombits(binary.LittleEndian.Uint64(p[16+8*j:]))
		}
		p = p[rec:]
	}
	return out, nil
}
