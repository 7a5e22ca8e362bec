package render

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"insitu/internal/grid"
)

func testField(b grid.Box, seed int64) *grid.Field {
	f := grid.NewField("T", b)
	rng := rand.New(rand.NewSource(seed))
	d := b.Dims()
	// Smooth structure plus noise.
	for idx := range f.Data {
		i, j, k := b.Point(idx)
		x := float64(i) / float64(d[0])
		y := float64(j) / float64(max(d[1], 2))
		z := float64(k) / float64(max(d[2], 2))
		f.Data[idx] = 0.5 + 0.4*math.Sin(5*x)*math.Cos(4*y)*math.Cos(3*z) + 0.05*rng.Float64()
	}
	return f
}

func testRenderer(t *testing.T, g grid.Box, w, h int) *Renderer {
	t.Helper()
	r, err := NewRenderer(w, h, HotMetal(0, 1), [3]float64{0.4, 0.25, 1}, [3]float64{0, 1, 0}, 0.5, g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTransferFuncLookup(t *testing.T) {
	tf, err := NewTransferFunc(
		ControlPoint{Value: 0, R: 0, A: 0},
		ControlPoint{Value: 1, R: 1, A: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _, a := tf.Lookup(0.5)
	if !approx(r, 0.5) || !approx(a, 0.5) {
		t.Fatalf("midpoint lookup wrong: r=%g a=%g", r, a)
	}
	// Clamping.
	r, _, _, _ = tf.Lookup(-5)
	if r != 0 {
		t.Fatal("below-range lookup must clamp")
	}
	r, _, _, _ = tf.Lookup(5)
	if r != 1 {
		t.Fatal("above-range lookup must clamp")
	}
	if _, err := NewTransferFunc(ControlPoint{}); err == nil {
		t.Fatal("single control point must error")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestRendererValidation(t *testing.T) {
	g := grid.NewBox(4, 4, 4)
	tf := HotMetal(0, 1)
	if _, err := NewRenderer(0, 4, tf, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, 0.5, g); err == nil {
		t.Fatal("zero width must error")
	}
	if _, err := NewRenderer(4, 4, nil, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, 0.5, g); err == nil {
		t.Fatal("nil TF must error")
	}
	if _, err := NewRenderer(4, 4, tf, [3]float64{0, 0, 0}, [3]float64{0, 1, 0}, 0.5, g); err == nil {
		t.Fatal("zero direction must error")
	}
	if _, err := NewRenderer(4, 4, tf, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, 0, g); err == nil {
		t.Fatal("zero step must error")
	}
	if _, err := NewRenderer(4, 4, tf, [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, 0.5, grid.Box{}); err == nil {
		t.Fatal("empty box must error")
	}
	// Up parallel to dir must be repaired, not fail.
	r, err := NewRenderer(4, 4, tf, [3]float64{0, 1, 0}, [3]float64{0, 1, 0}, 0.5, g)
	if err != nil {
		t.Fatal(err)
	}
	if norm(cross(r.Dir, r.Up)) < 1e-9 {
		t.Fatal("up not repaired")
	}
}

func TestSerialRenderProducesContent(t *testing.T) {
	g := grid.NewBox(16, 12, 10)
	f := testField(g, 1)
	r := testRenderer(t, g, 32, 24)
	img := r.RenderBlock(f, f.Box)
	var sum float64
	for i := 3; i < len(img.Pix); i += 4 {
		sum += img.Pix[i]
	}
	if sum == 0 {
		t.Fatal("render produced a fully transparent image")
	}
	for _, v := range img.Pix {
		if math.IsNaN(v) || v < 0 || v > 1+1e-9 {
			t.Fatalf("pixel value out of range: %g", v)
		}
	}
}

// TestParallelMatchesSerial is the in-situ correctness property: per-
// block partial renders composited in visibility order reproduce the
// serial image (up to floating-point associativity).
func TestParallelMatchesSerial(t *testing.T) {
	g := grid.NewBox(18, 14, 10)
	f := testField(g, 2)
	for _, p := range [][3]int{{2, 1, 1}, {2, 2, 2}, {3, 2, 1}} {
		dc, err := grid.NewDecomp(g, p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		// Build ghosted per-rank fields from the global field.
		fields := make([]*grid.Field, dc.Ranks())
		for i := range fields {
			fields[i] = f.Extract(dc.Block(i).Grow(1).Intersect(g))
		}
		for _, dir := range [][3]float64{{1, 0, 0}, {0, 0, -1}, {0.3, -0.5, 0.8}, {-1, -1, -1}} {
			r, err := NewRenderer(24, 20, HotMetal(0, 1), dir, [3]float64{0, 1, 0}, 0.4, g)
			if err != nil {
				t.Fatal(err)
			}
			want := r.RenderBlock(f, f.Box)
			got, err := renderInSitu(r, dc, fields)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := MeanAbsDiff(want, got)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-9 {
				t.Fatalf("decomp %v dir %v: parallel render differs from serial by %g", p, dir, diff)
			}
		}
	}
}

// TestHybridApproximatesSerial: the down-sampled in-transit render
// must approximate the full-resolution image, with error shrinking as
// the down-sampling factor shrinks (Fig. 2's quality comparison).
func TestHybridApproximatesSerial(t *testing.T) {
	g := grid.NewBox(32, 24, 16)
	f := testField(g, 3)
	dc, err := grid.NewDecomp(g, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := testRenderer(t, g, 24, 20)
	want := full.RenderBlock(f, f.Box)

	renderAt := func(factor int) *Image {
		bt := NewBlockTable()
		for i := 0; i < dc.Ranks(); i++ {
			payload, _ := DownsampleForTransit(f, dc.Block(i), factor)
			if err := bt.AddMarshalled(payload); err != nil {
				t.Fatal(err)
			}
		}
		// Frame the camera for the down-sampled index space.
		r, err := NewRenderer(24, 20, HotMetal(0, 1), full.Dir, full.Up,
			full.Step/float64(factor), bt.Bounds())
		if err != nil {
			t.Fatal(err)
		}
		img, err := r.RenderTable(bt)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	d2, _ := MeanAbsDiff(want, renderAt(2))
	d4, _ := MeanAbsDiff(want, renderAt(4))
	if d2 > 0.15 {
		t.Fatalf("2x down-sampled render too far from serial: %g", d2)
	}
	if d4 < d2 {
		t.Fatalf("coarser sampling should not be more accurate: d2=%g d4=%g", d2, d4)
	}
}

// TestFramesDoNotDependOnWidth: renderWith casts one row band per
// GOMAXPROCS worker, each with its own block-table cursor, so a frame
// cast at any width is the same, pixel for pixel and bit for bit.
func TestFramesDoNotDependOnWidth(t *testing.T) {
	g := grid.NewBox(32, 24, 16)
	f := testField(g, 4)
	dc, err := grid.NewDecomp(g, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bt := NewBlockTable()
	for i := 0; i < dc.Ranks(); i++ {
		payload, _ := DownsampleForTransit(f, dc.Block(i), 2)
		if err := bt.AddMarshalled(payload); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRenderer(37, 23, HotMetal(0, 1), [3]float64{0.4, 0.25, 1}, [3]float64{0, 1, 0}, 0.25, bt.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []float64
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		img, err := r.RenderTable(bt)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = slices.Clone(img.Pix)
		}
		for i, v := range img.Pix {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS %d: pixel %d channel %d is %v, %v at GOMAXPROCS 1", procs, i/4, i%4, v, want[i])
			}
		}
		PutImage(img)
	}
}

func TestDataReductionFromDownsampling(t *testing.T) {
	g := grid.NewBox(32, 32, 32)
	f := testField(g, 4)
	payload, n := DownsampleForTransit(f, g, 8)
	if n != len(payload) {
		t.Fatal("size mismatch")
	}
	raw := 8 * len(f.Data)
	// 8x downsampling in 3-D is a ~512x data reduction.
	if n*256 > raw {
		t.Fatalf("8x downsample moved %d of %d raw bytes; expected ~512x reduction", n, raw)
	}
}

func TestBlockTableSampleOutside(t *testing.T) {
	bt := NewBlockTable()
	f := grid.NewField("T", grid.NewBox(4, 4, 4))
	for i := range f.Data {
		f.Data[i] = 0.5
	}
	bt.Add(f)
	if v := bt.Sample(100, 0, 0); !math.IsInf(v, -1) {
		t.Fatalf("outside sample must be -Inf, got %g", v)
	}
	if v := bt.Sample(1.5, 1.5, 1.5); v != 0.5 {
		t.Fatalf("inside sample wrong: %g", v)
	}
	if _, err := (&Renderer{}).RenderTable(NewBlockTable()); err == nil {
		t.Fatal("empty table must error")
	}
	if err := bt.AddMarshalled([]byte{1, 2}); err == nil {
		t.Fatal("bad payload must error")
	}
}

// TestBlockTableResetReusesDecodedBlocks: the zero table is usable, and
// after Reset the table holds only the blocks added since, decoded into
// the storage of the ones before.
func TestBlockTableResetReusesDecodedBlocks(t *testing.T) {
	block := func(box grid.Box, v float64) []byte {
		f := grid.NewField("T", box)
		for i := range f.Data {
			f.Data[i] = v
		}
		return f.Marshal()
	}
	var bt BlockTable
	if err := bt.AddMarshalled(block(grid.NewBox(4, 4, 4), 0.5)); err != nil {
		t.Fatal(err)
	}
	if v := bt.Sample(1.5, 1.5, 1.5); v != 0.5 {
		t.Fatalf("zero table: inside sample %g, want 0.5", v)
	}
	backing := &bt.decoded[0].Data[0]
	bt.Reset()
	small := grid.Box{Lo: [3]int{6, 0, 0}, Hi: [3]int{8, 2, 2}}
	if err := bt.AddMarshalled(block(small, 0.25)); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 1 || bt.Bounds() != small {
		t.Fatalf("after Reset: %d blocks on %v, want 1 on %v", bt.Len(), bt.Bounds(), small)
	}
	if lo, hi := bt.ValueRange(); lo != 0.25 || hi != 0.25 {
		t.Fatalf("after Reset: value range [%g, %g], want the new block's 0.25", lo, hi)
	}
	if v := bt.Sample(1.5, 1.5, 1.5); !math.IsInf(v, -1) {
		t.Fatalf("after Reset the old block still samples: %g", v)
	}
	if v := bt.Sample(6.5, 0.5, 0.5); v != 0.25 {
		t.Fatalf("new block samples %g, want 0.25", v)
	}
	if &bt.decoded[0].Data[0] != backing {
		t.Fatal("Reset dropped the decoded block's storage")
	}
}

func TestCompositeErrors(t *testing.T) {
	if _, err := CompositeFrontToBack(nil); err == nil {
		t.Fatal("empty composite must error")
	}
	a, b := NewImage(2, 2), NewImage(3, 3)
	if err := a.Under(b); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestCompositeOpaqueFrontWins(t *testing.T) {
	front := NewImage(1, 1)
	front.Set(0, 0, 1, 0, 0, 1) // opaque red
	back := NewImage(1, 1)
	back.Set(0, 0, 0, 1, 0, 1) // opaque green
	out, err := CompositeFrontToBack([]*Image{front, back})
	if err != nil {
		t.Fatal(err)
	}
	r, g, _, a := out.At(0, 0)
	if r != 1 || g != 0 || a != 1 {
		t.Fatalf("opaque front must win: r=%g g=%g a=%g", r, g, a)
	}
}

func TestSavePNG(t *testing.T) {
	dir := t.TempDir()
	g := grid.NewBox(8, 8, 8)
	img := testRenderer(t, g, 16, 16).RenderBlock(testField(g, 5), g)
	path := filepath.Join(dir, "out.png")
	if err := img.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := img.AppendPNG(nil); !bytes.Equal(got, want) {
		t.Fatalf("the file holds %d bytes, not AppendPNG's %d", len(got), len(want))
	}
	if err := img.SavePNG(filepath.Join(dir, "missing", "out.png")); err == nil {
		t.Fatal("bad path must error")
	}
}

// TestBlockOrderFrontToBack: for an axis-aligned view, blocks nearer
// the camera (smaller coordinate along +dir) come first.
func TestBlockOrderFrontToBack(t *testing.T) {
	g := grid.NewBox(16, 16, 16)
	dc, err := grid.NewDecomp(g, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := testRenderer(t, g, 4, 4)
	r.Dir = [3]float64{1, 0, 0}
	order := r.BlockOrder(dc)
	for i := 0; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("+x view: want rank order 0..3, got %v", order)
		}
	}
	r.Dir = [3]float64{-1, 0, 0}
	order = r.BlockOrder(dc)
	for i := 0; i < 4; i++ {
		if order[i] != 3-i {
			t.Fatalf("-x view: want rank order 3..0, got %v", order)
		}
	}
}

// TestRaySlab sanity-checks the clipping interval against brute-force
// containment.
func TestRaySlab(t *testing.T) {
	b := grid.Box{Lo: [3]int{2, 2, 2}, Hi: [3]int{6, 6, 6}}
	origin := [3]float64{0, 4, 4}
	dir := [3]float64{1, 0, 0}
	t0, t1, hit := raySlab(origin, dir, b, 0, 100)
	if !hit || t0 > 2.0001 || t1 < 5.9999 {
		t.Fatalf("slab interval wrong: [%g, %g] hit=%v", t0, t1, hit)
	}
	// Miss.
	if _, _, hit := raySlab([3]float64{0, 100, 4}, dir, b, 0, 100); hit {
		t.Fatal("ray far outside must miss")
	}
	// Zero direction component outside the slab.
	if _, _, hit := raySlab([3]float64{0, 0, 4}, dir, b, 0, 100); hit {
		t.Fatal("parallel ray outside the slab must miss")
	}
}

// renderInSitu runs the fully in-situ algorithm serially over the
// per-rank ghosted fields: each block renders its partial image, then
// the images composite in visibility order. fields[i] must cover
// dc.Block(i) plus a ghost layer.
func renderInSitu(r *Renderer, dc *grid.Decomp, fields []*grid.Field) (*Image, error) {
	ordered := make([]*Image, 0, len(fields))
	for _, rank := range r.BlockOrder(dc) {
		ordered = append(ordered, r.RenderBlock(fields[rank], dc.Block(rank)))
	}
	return CompositeFrontToBack(ordered)
}
