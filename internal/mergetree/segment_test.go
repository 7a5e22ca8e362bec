package mergetree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"insitu/internal/grid"
)

// segmentField computes Segment's threshold segmentation straight from
// a field with union-find over 6-neighbor adjacency, labeling each
// component by its sweep-lowest member: the oracle the tree-based
// segmentation is checked against.
func segmentField(f *grid.Field, global grid.Box, threshold float64) *Segmentation {
	b := f.Box
	d := b.Dims()
	parent := make([]int, b.Size())
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		if parent[y] >= 0 {
			parent[find(x)] = find(y)
		}
	}
	for idx := range parent {
		parent[idx] = -1
		if !(f.Data[idx] >= threshold) {
			continue
		}
		parent[idx] = idx
		i, j, k := b.Point(idx)
		if i > b.Lo[0] {
			union(idx, idx-1)
		}
		if j > b.Lo[1] {
			union(idx, idx-d[0])
		}
		if k > b.Lo[2] {
			union(idx, idx-d[0]*d[1])
		}
	}
	id := func(idx int) int64 {
		i, j, k := b.Point(idx)
		return grid.GlobalIndex(global, i, j, k)
	}
	lowest := make(map[int]int) // root -> sweep-lowest member
	for idx := range parent {
		if parent[idx] < 0 {
			continue
		}
		r := find(idx)
		if low, ok := lowest[r]; !ok || Above(f.Data[low], id(low), f.Data[idx], id(idx)) {
			lowest[r] = idx
		}
	}
	seg := &Segmentation{Labels: make(map[int64]int64)}
	for idx := range parent {
		if parent[idx] >= 0 {
			seg.Labels[id(idx)] = id(lowest[find(idx)])
		}
	}
	return seg
}

// track counts the voxel overlaps between two segmentations of one
// domain, sorted by decreasing overlap then labels: what
// core.JoinTracking assembles from per-rank counts.
func track(prev, next *Segmentation) []Match {
	counts := make(map[[2]int64]int)
	for id, pl := range prev.Labels {
		if nl, ok := next.Labels[id]; ok {
			counts[[2]int64{pl, nl}]++
		}
	}
	out := make([]Match, 0, len(counts))
	for k, c := range counts {
		out = append(out, Match{PrevLabel: k[0], NextLabel: k[1], Overlap: c})
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

// lineage assembles segmentations of consecutive steps 1, 2, ... into
// a TrackGraph linked by their overlaps.
func lineage(t *testing.T, segs []*Segmentation) *TrackGraph {
	t.Helper()
	g := NewTrackGraph()
	for i, seg := range segs {
		var feats []int64
		for _, l := range seg.Labels {
			if !slices.Contains(feats, l) {
				feats = append(feats, l)
			}
		}
		if err := g.AddStep(i+1, feats); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := g.AddMatches(i, i+1, track(segs[i-1], seg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestSegmentTiny(t *testing.T) {
	f, b := threePeakField() // 1 5 2 4 1 1.5 1 0
	tr := FromField(f, b)
	seg := Segment(tr, 3)
	// Above threshold 3: vertices 1 (val 5) and 3 (val 4), separate
	// components.
	if len(seg.Labels) != 2 {
		t.Fatalf("want 2 labeled vertices, got %d", len(seg.Labels))
	}
	if seg.Labels[1] == seg.Labels[3] {
		t.Fatal("the two peaks must be distinct components at threshold 3")
	}
	// At threshold 1.5 the first two peaks join (saddle at 2 >= 1.5).
	seg2 := Segment(tr, 1.5)
	if seg2.Labels[1] != seg2.Labels[3] {
		t.Fatal("peaks must merge at threshold 1.5")
	}
	if seg2.Labels[5] == seg2.Labels[1] {
		t.Fatal("third peak is separated by the val-1 valley at threshold 1.5")
	}
}

func TestSegmentMatchesSegmentField(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		b := grid.NewBox(3+rng.Intn(10), 3+rng.Intn(8), 1+rng.Intn(4))
		f := randomField(rng, b)
		tr := FromField(f, b)
		threshold := 0.2 + 0.6*rng.Float64()
		a := Segment(tr, threshold)
		c := segmentField(f, b, threshold)
		if len(a.Labels) != len(c.Labels) {
			t.Fatalf("trial %d: label counts differ: %d vs %d", trial, len(a.Labels), len(c.Labels))
		}
		for id, la := range a.Labels {
			if lc, ok := c.Labels[id]; !ok || lc != la {
				t.Fatalf("trial %d: vertex %d labeled %d vs %d", trial, id, la, lc)
			}
		}
	}
}

func TestSegmentationFeatures(t *testing.T) {
	f, b := threePeakField()
	tr := FromField(f, b)
	feats := Features(tr, 3)
	if len(feats) != 2 {
		t.Fatalf("want 2 features, got %d", len(feats))
	}
	// Both components are single vertices here.
	for _, ft := range feats {
		if ft.Size != 1 {
			t.Fatalf("feature %d should have size 1, got %d", ft.Label, ft.Size)
		}
	}
	if feats[0].MaxValue != 5 && feats[1].MaxValue != 5 {
		t.Fatal("one feature must peak at 5")
	}
}

// blobField places a Gaussian blob at the given center.
func blobField(b grid.Box, cx, cy float64) *grid.Field {
	f := grid.NewField("blob", b)
	for idx := range f.Data {
		i, j, _ := b.Point(idx)
		dx, dy := float64(i)-cx, float64(j)-cy
		f.Data[idx] = math.Exp(-(dx*dx + dy*dy) / 8)
	}
	return f
}

// TestTrackMovingBlob reproduces the Fig. 1 scenario in miniature: a
// feature moving two grid points per step is one track across every
// step at cadence 1, and lost at a cadence larger than its footprint.
func TestTrackMovingBlob(t *testing.T) {
	b := grid.NewBox(40, 12, 1)
	var segs []*Segmentation
	for s := 0; s < 12; s++ {
		f := blobField(b, 4+float64(s)*2, 6)
		segs = append(segs, segmentField(f, b, 0.5))
	}
	sum := lineage(t, segs).Summarize(false)
	if sum.Tracks != 1 || sum.LongestTrack != len(segs) || sum.Births != 1 || sum.Deaths != 1 {
		t.Fatalf("one blob over %d steps should be one track from one birth to one death: %+v", len(segs), sum)
	}
	// At cadence 4 (blob moves 8 points, footprint ~ +/-3), overlap is
	// lost: connectivity indicators vanish, as the paper's Fig. 1
	// caption describes for coarse output cadences.
	sum = lineage(t, []*Segmentation{segs[0], segs[4], segs[8]}).Summarize(false)
	if sum.Tracks != 3 || sum.LongestTrack != 1 {
		t.Fatalf("at cadence 4 every output should start a track of its own: %+v", sum)
	}
}

func TestSegmentationPartitionProperty(t *testing.T) {
	prop := func(seed int64, t8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := grid.NewBox(2+rng.Intn(8), 2+rng.Intn(8), 1+rng.Intn(3))
		f := randomField(rng, b)
		threshold := float64(t8) / 255
		tr := FromField(f, b)
		seg := Segment(tr, threshold)
		want := 0
		for _, v := range f.Data {
			if v >= threshold {
				want++
			}
		}
		if len(seg.Labels) != want {
			return false
		}
		// Every label must name a member vertex of its own component
		// whose value is >= threshold.
		for _, l := range seg.Labels {
			n := slices.Index(tr.IDs, l)
			if n < 0 || tr.Values[n] < threshold {
				return false
			}
			if seg.Labels[l] != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedProperty is the flagship property test: for random
// fields, decompositions and thresholds, the hybrid in-situ/in-transit
// pipeline reproduces the serial merge tree exactly under both exact
// boundary policies.
func TestDistributedProperty(t *testing.T) {
	for _, policy := range []BoundaryPolicy{KeepSharedBoundary, KeepOverlapMaxima} {
		checkDistributedProperty(t, policy)
	}
}

func checkDistributedProperty(t *testing.T, policy BoundaryPolicy) {
	t.Helper()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 4+rng.Intn(10), 4+rng.Intn(8), 1+rng.Intn(5)
		b := grid.NewBox(nx, ny, nz)
		f := randomField(rng, b)
		px := 1 + rng.Intn(min(3, nx))
		py := 1 + rng.Intn(min(3, ny))
		pz := 1 + rng.Intn(min(2, nz))
		dc, err := grid.NewDecomp(b, px, py, pz)
		if err != nil {
			return false
		}
		var subtrees []*Subtree
		for r := 0; r < dc.Ranks(); r++ {
			owned := dc.Block(r)
			ext := owned.Grow(1).Intersect(b)
			st, err := LocalSubtree(f.Extract(ext), b, owned, r, policy)
			if err != nil {
				return false
			}
			subtrees = append(subtrees, st)
		}
		bld := &Builder{sweepEvery: 32}
		if seed%2 != 0 {
			bld.sweepEvery = math.MaxInt // no eviction before the last edge
		}
		glued, _, err := bld.Glue(subtrees)
		if err != nil {
			return false
		}
		serial := criticalReduce(FromField(f, b))
		return equalTrees(serial, criticalReduce(glued))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("policy %d: %v", policy, err)
	}
}
