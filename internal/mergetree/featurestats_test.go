package mergetree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/stats"
)

// serialFeatureStats computes the reference: segment the global field,
// accumulate cond per component, keyed by the component's highest
// vertex.
func serialFeatureStats(segVar, cond *grid.Field, global grid.Box, threshold float64) map[int64]stats.Derived {
	s := segmentField(segVar, global, threshold)
	rep := make(map[int64]int64)
	repVal := make(map[int64]float64)
	acc := make(map[int64]*stats.Moments)
	for id, label := range s.Labels {
		i, j, k := grid.GlobalPoint(global, id)
		v := segVar.At(i, j, k)
		if cur, ok := rep[label]; !ok || Above(v, id, repVal[label], cur) {
			rep[label] = id
			repVal[label] = v
		}
		m, ok := acc[label]
		if !ok {
			m = stats.NewMoments()
			acc[label] = m
		}
		m.Update(cond.At(i, j, k))
	}
	out := make(map[int64]stats.Derived)
	for label, m := range acc {
		out[rep[label]] = stats.Derive(m)
	}
	return out
}

func TestFeatureStatsHybridMatchesSerial(t *testing.T) {
	b := grid.NewBox(20, 14, 8)
	segVar := smoothField(b, 0.7)
	rng := rand.New(rand.NewSource(33))
	cond := grid.NewField("w", b)
	for i := range cond.Data {
		cond.Data[i] = rng.NormFloat64()
	}
	threshold := 0.4

	want := serialFeatureStats(segVar, cond, b, threshold)
	if len(want) < 2 {
		t.Fatalf("test field should have several features, got %d", len(want))
	}

	dc, err := grid.NewDecomp(b, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var subtrees []*Subtree
	var partials [][]FeaturePartial
	for r := 0; r < dc.Ranks(); r++ {
		owned := dc.Block(r)
		ext := owned.Grow(1).Intersect(b)
		st, err := LocalSubtree(segVar.Extract(ext), b, owned, r, KeepOverlapMaxima)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := LocalFeatureStats(segVar.Extract(ext), cond.Extract(ext), b, owned, threshold)
		if err != nil {
			t.Fatal(err)
		}
		// Exercise the wire format too.
		ps2, err := UnmarshalFeaturePartials(AppendFeaturePartials(nil, ps))
		if err != nil {
			t.Fatal(err)
		}
		subtrees = append(subtrees, st)
		partials = append(partials, ps2)
	}
	tree, _, err := new(Builder).Glue(subtrees)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GlobalFeatureStats(tree, threshold, partials)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("feature count: want %d, got %d", len(want), len(got))
	}
	for _, fs := range got {
		ref, ok := want[fs.MaxID]
		if !ok {
			t.Fatalf("feature with max %d not in serial reference", fs.MaxID)
		}
		if fs.Stats.N != ref.N {
			t.Fatalf("feature %d: count %d vs serial %d", fs.MaxID, fs.Stats.N, ref.N)
		}
		if math.Abs(fs.Stats.Mean-ref.Mean) > 1e-9 || math.Abs(fs.Stats.Variance-ref.Variance) > 1e-9 {
			t.Fatalf("feature %d: stats diverge: %+v vs %+v", fs.MaxID, fs.Stats, ref)
		}
		if fs.Stats.Min != ref.Min || fs.Stats.Max != ref.Max {
			t.Fatalf("feature %d: extrema diverge", fs.MaxID)
		}
	}
	// Output must be sorted by descending size.
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].Stats.N != got[j].Stats.N {
			return got[i].Stats.N > got[j].Stats.N
		}
		return got[i].Feature < got[j].Feature
	}) {
		t.Fatal("feature stats not sorted")
	}
}

// TestRepresentativesAreSubtreeVertices is the property in-transit
// tracking and feature statistics rest on: over random, tied and
// smooth fields and decompositions down to 1-cell-thick blocks, every
// owned voxel at or above the threshold gets a representative from
// LocalComponents, from the extended block or the whole field alike,
// and that representative is the highest member of the voxel's
// component in the extended block and a vertex of the rank's
// KeepOverlapMaxima subtree, so the glued tree resolves it.
func TestRepresentativesAreSubtreeVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	decomps := [][3]int{{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {6, 1, 1}, {1, 5, 2}, {6, 5, 3}}
	for trial := 0; trial < 18; trial++ {
		global := grid.NewBox(6+rng.Intn(5), 5+rng.Intn(4), 3+rng.Intn(3))
		var f *grid.Field
		switch trial % 3 {
		case 0:
			f = randomField(rng, global)
		case 1:
			f = tiedField(rng, global)
		default:
			f = smoothField(global, rng.Float64()*3)
		}
		val := func(id int64) float64 { return f.At(grid.GlobalPoint(global, id)) }
		threshold := f.Data[rng.Intn(len(f.Data))]
		pd := decomps[trial%len(decomps)]
		dc, err := grid.NewDecomp(global, pd[0], pd[1], pd[2])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < dc.Ranks(); r++ {
			owned := dc.Block(r)
			block := f.Extract(owned.Grow(1).Intersect(global))
			reps, err := LocalComponents(block, global, owned, threshold)
			if err != nil {
				t.Fatal(err)
			}
			// A field wider than the extended block, as a rank's ghosted
			// field is at a domain face, labels the same.
			if whole, err := LocalComponents(f, global, owned, threshold); err != nil || !maps.Equal(whole, reps) {
				t.Fatalf("trial %d rank %d: the whole field labels differently from the extended block (%v)", trial, r, err)
			}
			st, err := LocalSubtree(block, global, owned, r, KeepOverlapMaxima)
			if err != nil {
				t.Fatal(err)
			}
			inSubtree := map[int64]bool{}
			for _, v := range st.Verts {
				inSubtree[v.ID] = true
			}
			seg := segmentField(block, global, threshold)
			highest := map[int64]int64{} // component label -> highest member
			for id, label := range seg.Labels {
				h, ok := highest[label]
				if !ok || Above(val(id), id, val(h), h) {
					highest[label] = id
				}
			}
			for k := owned.Lo[2]; k < owned.Hi[2]; k++ {
				for j := owned.Lo[1]; j < owned.Hi[1]; j++ {
					for i := owned.Lo[0]; i < owned.Hi[0]; i++ {
						id := grid.GlobalIndex(global, i, j, k)
						rep, ok := reps[id]
						if ok != (val(id) >= threshold) {
							t.Fatalf("trial %d rank %d voxel %d (value %g, threshold %g): labeled %v", trial, r, id, val(id), threshold, ok)
						}
						if !ok {
							continue
						}
						if want := highest[seg.Labels[id]]; rep != want {
							t.Fatalf("trial %d rank %d voxel %d: representative %d, the component's highest member is %d", trial, r, id, rep, want)
						}
						if !inSubtree[rep] {
							t.Fatalf("trial %d decomp %v rank %d: representative %d is not a vertex of the rank's subtree", trial, pd, r, rep)
						}
					}
				}
			}
		}
	}
}

func TestLocalFeatureStatsValidation(t *testing.T) {
	b := grid.NewBox(8, 8, 1)
	f := smoothField(b, 0)
	small := f.Extract(grid.NewBox(2, 2, 1))
	if _, err := LocalFeatureStats(small, small, b, grid.NewBox(8, 8, 1), 0.5); err == nil {
		t.Fatal("field not covering extended block must error")
	}
}

func TestFeaturePartialsMarshalErrors(t *testing.T) {
	if _, err := UnmarshalFeaturePartials(nil); err == nil {
		t.Fatal("empty payload must error")
	}
	ps := []FeaturePartial{{Rep: 3}}
	p := AppendFeaturePartials(nil, ps)
	if _, err := UnmarshalFeaturePartials(p[:len(p)-4]); err == nil {
		t.Fatal("truncated payload must error")
	}
	got, err := UnmarshalFeaturePartials(p)
	if err != nil || len(got) != 1 || got[0].Rep != 3 {
		t.Fatalf("round trip failed: %v %v", got, err)
	}
}

// FuzzUnmarshalFeaturePartials: arbitrary bytes decode to a typed
// error or to partials whose encoding is the bytes they were read
// from, never a panic.
func FuzzUnmarshalFeaturePartials(f *testing.F) {
	global := grid.NewBox(8, 6, 4)
	seg := smoothField(global, 0.5)
	ps, err := LocalFeatureStats(seg, seg, global, grid.Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{4, 6, 4}}, 0.2)
	if err != nil {
		f.Fatal(err)
	}
	real := AppendFeaturePartials(nil, ps)
	f.Add(real)
	hostile := bytes.Clone(real)
	binary.LittleEndian.PutUint32(hostile, math.MaxUint32)
	f.Add(hostile)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := UnmarshalFeaturePartials(p)
		if err != nil {
			if !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		enc := AppendFeaturePartials(nil, got)
		if len(enc) > len(p) || !bytes.Equal(enc, p[:len(enc)]) {
			t.Fatalf("decoded %d partials from %d bytes, but they marshal to %d different bytes", len(got), len(p), len(enc))
		}
	})
}

func TestGlobalFeatureStatsUnknownRep(t *testing.T) {
	values := map[int64]float64{0: 5, 1: 4, 2: 3}
	edges := [][2]int64{{0, 1}, {1, 2}}
	tree, err := fromGraph(values, edges)
	if err != nil {
		t.Fatal(err)
	}
	m := stats.NewMoments()
	m.Update(1)
	_, err = GlobalFeatureStats(tree, 3.5, [][]FeaturePartial{{{Rep: 99, Moments: *m}}})
	if err == nil {
		t.Fatal("unknown representative must error")
	}
}
