package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(4, 5, 6)
	if b.Size() != 120 {
		t.Fatalf("size: want 120, got %d", b.Size())
	}
	if b.Dims() != [3]int{4, 5, 6} {
		t.Fatalf("dims wrong: %v", b.Dims())
	}
	if !b.Contains(0, 0, 0) || !b.Contains(3, 4, 5) {
		t.Fatal("corners must be contained")
	}
	if b.Contains(4, 0, 0) || b.Contains(-1, 0, 0) {
		t.Fatal("out-of-range points must not be contained")
	}
	if b.Empty() {
		t.Fatal("non-degenerate box is not empty")
	}
	if !(Box{}).Empty() {
		t.Fatal("zero box is empty")
	}
}

func TestBoxIntersectUnion(t *testing.T) {
	a := Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{4, 4, 4}}
	b := Box{Lo: [3]int{2, 2, 2}, Hi: [3]int{6, 6, 6}}
	iv := a.Intersect(b)
	if iv.Lo != [3]int{2, 2, 2} || iv.Hi != [3]int{4, 4, 4} {
		t.Fatalf("intersection wrong: %v", iv)
	}
	u := a.Union(b)
	if u.Lo != [3]int{0, 0, 0} || u.Hi != [3]int{6, 6, 6} {
		t.Fatalf("union wrong: %v", u)
	}
	far := Box{Lo: [3]int{10, 10, 10}, Hi: [3]int{12, 12, 12}}
	if !a.Intersect(far).Empty() {
		t.Fatal("disjoint boxes must intersect empty")
	}
}

func TestBoxGrowTranslate(t *testing.T) {
	b := Box{Lo: [3]int{2, 2, 2}, Hi: [3]int{4, 4, 4}}
	g := b.Grow(1)
	if g.Lo != [3]int{1, 1, 1} || g.Hi != [3]int{5, 5, 5} {
		t.Fatalf("grow wrong: %v", g)
	}
	if s := b.Grow(-1); s.Size() != 0 {
		t.Fatalf("shrinking a 2-wide box should empty it, got %v", s)
	}
}

func TestIndexPointRoundTrip(t *testing.T) {
	b := Box{Lo: [3]int{3, -2, 1}, Hi: [3]int{8, 4, 5}}
	for idx := 0; idx < b.Size(); idx++ {
		i, j, k := b.Point(idx)
		if !b.Contains(i, j, k) {
			t.Fatalf("point %d -> (%d,%d,%d) outside box", idx, i, j, k)
		}
		if got := b.Index(i, j, k); got != idx {
			t.Fatalf("index round trip: %d -> %d", idx, got)
		}
	}
}

func TestGlobalIndexRoundTrip(t *testing.T) {
	g := Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{100, 37, 19}}
	prop := func(i, j, k uint16) bool {
		x, y, z := int(i)%100, int(j)%37, int(k)%19
		id := GlobalIndex(g, x, y, z)
		rx, ry, rz := GlobalPoint(g, id)
		return rx == x && ry == y && rz == z
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldExtractPaste(t *testing.T) {
	b := NewBox(6, 5, 4)
	f := NewField("T", b)
	for idx := range f.Data {
		f.Data[idx] = float64(idx)
	}
	sub := Box{Lo: [3]int{1, 1, 1}, Hi: [3]int{4, 4, 3}}
	e := f.Extract(sub)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				if e.At(i, j, k) != f.At(i, j, k) {
					t.Fatalf("extract mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	g := NewField("T", b)
	g.Paste(e)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				if g.At(i, j, k) != f.At(i, j, k) {
					t.Fatalf("paste mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	if g.At(0, 0, 0) != 0 {
		t.Fatal("paste must not write outside the source box")
	}
}

func TestExtractOutsidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("extract outside field box must panic")
		}
	}()
	f := NewField("T", NewBox(2, 2, 2))
	f.Extract(NewBox(3, 3, 3))
}

// downsample decodes what AppendDownsampleMarshal ships for region.
func downsample(t *testing.T, f *Field, region Box, factor int) *Field {
	t.Helper()
	d, err := UnmarshalField(f.AppendDownsampleMarshal(nil, region, factor))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDownsample(t *testing.T) {
	b := NewBox(16, 8, 8)
	f := NewField("T", b)
	for idx := range f.Data {
		i, j, k := b.Point(idx)
		f.Data[idx] = float64(i + 100*j + 10000*k)
	}
	d := downsample(t, f, b, 8)
	if d.Box.Dims() != [3]int{2, 1, 1} {
		t.Fatalf("downsampled dims wrong: %v", d.Box.Dims())
	}
	if d.At(1, 0, 0) != f.At(8, 0, 0) {
		t.Fatal("downsample must pick every 8th point")
	}
	// Offset blocks: a block starting at 3 with factor 2 holds global
	// down-sampled indices ceil(3/2)=2 onward.
	d2 := downsample(t, f, Box{Lo: [3]int{3, 0, 0}, Hi: [3]int{9, 8, 8}}, 2)
	if d2.Box.Lo[0] != 2 || d2.Box.Hi[0] != 5 {
		t.Fatalf("offset downsample box wrong: %v", d2.Box)
	}
	if d2.At(2, 0, 0) != f.At(4, 0, 0) {
		t.Fatal("offset downsample must map index 2 -> global 4")
	}
}

func TestDownsampleFactorOne(t *testing.T) {
	b := NewBox(3, 3, 1)
	f := NewField("T", b)
	f.Set(1, 2, 0, 7)
	d := downsample(t, f, b, 1)
	if d.Box != b || d.At(1, 2, 0) != 7 {
		t.Fatal("factor-1 downsample must be identity")
	}
}

func TestSampleTrilinear(t *testing.T) {
	b := NewBox(3, 3, 3)
	f := NewField("T", b)
	for idx := range f.Data {
		i, j, k := b.Point(idx)
		f.Data[idx] = float64(i) + 2*float64(j) + 4*float64(k) // linear
	}
	// Trilinear interpolation reproduces a linear function exactly.
	for _, p := range [][3]float64{{0.5, 0.5, 0.5}, {1.25, 0.75, 1.5}, {0, 2, 2}} {
		want := p[0] + 2*p[1] + 4*p[2]
		if got := f.Sample(p[0], p[1], p[2]); !close(got, want) {
			t.Fatalf("sample(%v): want %g, got %g", p, want, got)
		}
	}
	// Clamping.
	if got := f.Sample(-5, 0, 0); got != f.At(0, 0, 0) {
		t.Fatalf("sample must clamp below, got %g", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestFieldMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := Box{Lo: [3]int{2, 3, 4}, Hi: [3]int{7, 6, 6}}
	f := NewField("temperature", b)
	for idx := range f.Data {
		f.Data[idx] = rng.NormFloat64()
	}
	g, err := UnmarshalField(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || g.Box != f.Box {
		t.Fatalf("header mismatch: %v %v", g.Name, g.Box)
	}
	for i := range f.Data {
		if g.Data[i] != f.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
	if _, err := UnmarshalField(f.Marshal()[:10]); err == nil {
		t.Fatal("truncated payload must error")
	}
	if _, err := UnmarshalField(nil); err == nil {
		t.Fatal("empty payload must error")
	}
}

func TestDecompPartition(t *testing.T) {
	g := NewBox(17, 11, 7) // deliberately not divisible
	dc, err := NewDecomp(g, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Ranks() != 24 {
		t.Fatalf("ranks: want 24, got %d", dc.Ranks())
	}
	// Blocks tile the domain exactly.
	covered := make(map[[3]int]int)
	total := 0
	for r := 0; r < dc.Ranks(); r++ {
		b := dc.Block(r)
		total += b.Size()
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					covered[[3]int{i, j, k}]++
				}
			}
		}
	}
	if total != g.Size() {
		t.Fatalf("blocks cover %d points, domain has %d", total, g.Size())
	}
	for p, c := range covered {
		if c != 1 {
			t.Fatalf("point %v covered %d times", p, c)
		}
	}
}

func TestDecompNeighbors(t *testing.T) {
	g := NewBox(8, 8, 8)
	dc, _ := NewDecomp(g, 2, 2, 2)
	if dc.FaceNeighbor(0, 0, -1) != -1 {
		t.Fatal("face neighbor off the domain must be -1")
	}
	if dc.FaceNeighbor(0, 0, 1) != 1 {
		t.Fatal("face neighbor +x of rank 0 must be rank 1")
	}
}

func TestDecompErrors(t *testing.T) {
	g := NewBox(4, 4, 4)
	if _, err := NewDecomp(g, 0, 1, 1); err == nil {
		t.Fatal("zero split must error")
	}
	if _, err := NewDecomp(g, 5, 1, 1); err == nil {
		t.Fatal("overdecomposition must error")
	}
}

func TestDecompPaperGeometry(t *testing.T) {
	// The paper's 4896-core run: 16x28x10 simulation cores over a
	// 1600x1372x430 grid, each owning 100x49x43 points.
	g := NewBox(1600, 1372, 430)
	dc, err := NewDecomp(g, 16, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Ranks() != 4480 {
		t.Fatalf("want 4480 ranks, got %d", dc.Ranks())
	}
	if d := dc.Block(0).Dims(); d != [3]int{100, 49, 43} {
		t.Fatalf("per-core region: want 100x49x43, got %v", d)
	}
	// 9440-core run: 32x28x10 = 8960 cores, 50x49x43 each.
	dc2, err := NewDecomp(g, 32, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dc2.Ranks() != 8960 {
		t.Fatalf("want 8960 ranks, got %d", dc2.Ranks())
	}
	if d := dc2.Block(0).Dims(); d != [3]int{50, 49, 43} {
		t.Fatalf("per-core region: want 50x49x43, got %v", d)
	}
}
