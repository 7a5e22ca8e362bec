package mergetree

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	s := SegmentField(segVar, global, threshold)
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
	tree, _, err := Glue(subtrees, GlueOptions{Evict: true})
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
