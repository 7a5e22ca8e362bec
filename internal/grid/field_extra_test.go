package grid

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestExtractIntoReusesDestination(t *testing.T) {
	b := NewBox(8, 6, 5)
	f := NewField("T", b)
	for idx := range f.Data {
		f.Data[idx] = float64(idx)
	}
	sub := Box{Lo: [3]int{1, 2, 1}, Hi: [3]int{6, 5, 4}}
	want := f.Extract(sub)

	dst := NewField("scratch", NewBox(10, 10, 10)) // larger capacity
	backing := &dst.Data[0]
	got := f.ExtractInto(sub, dst)
	if got != dst {
		t.Fatal("ExtractInto must return the destination field")
	}
	if &got.Data[0] != backing {
		t.Fatal("ExtractInto must reuse the destination's backing array when it fits")
	}
	if got.Name != f.Name || got.Box != sub {
		t.Fatalf("header wrong: %q %v", got.Name, got.Box)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("length %d, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}

	// A too-small destination must still work (fresh allocation).
	small := &Field{Name: "s", Data: make([]float64, 1)}
	got2 := f.ExtractInto(sub, small)
	for i := range want.Data {
		if got2.Data[i] != want.Data[i] {
			t.Fatalf("grown-destination mismatch at %d", i)
		}
	}
}

// downsampleRef is what AppendDownsampleMarshal ships, by definition:
// the points of region whose global coordinates are all multiples of
// factor, as a field on the down-sampled index space, read with At.
// region must lie in the non-negative octant.
func downsampleRef(f *Field, region Box, factor int) *Field {
	var sub Box
	for d := 0; d < 3; d++ {
		sub.Lo[d] = (region.Lo[d] + factor - 1) / factor
		sub.Hi[d] = (region.Hi[d] + factor - 1) / factor
	}
	g := NewField(f.Name, sub)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				g.Set(i, j, k, f.At(i*factor, j*factor, k*factor))
			}
		}
	}
	return g
}

// TestAppendDownsampleMarshalMatchesReference: the single pass from the
// field's storage into the wire bytes ships exactly the reference
// down-sample's marshal, after a prefix it leaves intact, sized by
// DownsampleMarshalSize, into a sufficient buffer without growing it.
func TestAppendDownsampleMarshalMatchesReference(t *testing.T) {
	b := NewBox(16, 12, 9)
	f := NewField("T", b)
	rng := rand.New(rand.NewSource(7))
	for idx := range f.Data {
		f.Data[idx] = rng.NormFloat64()
	}
	region := Box{Lo: [3]int{3, 1, 2}, Hi: [3]int{14, 11, 8}}
	for _, factor := range []int{1, 2, 3} {
		want := downsampleRef(f, region, factor).Marshal()
		if n := f.DownsampleMarshalSize(region, factor); n != len(want) {
			t.Fatalf("factor %d: DownsampleMarshalSize %d, the marshal is %d bytes", factor, n, len(want))
		}
		prefix := []byte("HDR!")
		got := f.AppendDownsampleMarshal(append([]byte{}, prefix...), region, factor)
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
			t.Fatalf("factor %d: the shipped bytes differ from the reference down-sample's marshal", factor)
		}
		dst := make([]byte, 0, len(want))
		if out := f.AppendDownsampleMarshal(dst, region, factor); &out[0] != &dst[:1][0] {
			t.Fatalf("factor %d: a sufficient buffer was reallocated", factor)
		}
	}
}

func TestAppendMarshalExactSizeAndPrefix(t *testing.T) {
	b := Box{Lo: [3]int{1, 2, 3}, Hi: [3]int{5, 6, 7}}
	f := NewField("pressure", b)
	rng := rand.New(rand.NewSource(3))
	for idx := range f.Data {
		f.Data[idx] = rng.NormFloat64()
	}
	plain := f.Marshal()
	if len(plain) != f.MarshalSize() {
		t.Fatalf("MarshalSize %d but Marshal produced %d bytes", f.MarshalSize(), len(plain))
	}
	// Appending after a prefix must leave the prefix intact and encode
	// identically.
	prefix := []byte("HDR!")
	out := f.AppendMarshal(append([]byte{}, prefix...))
	if !bytes.Equal(out[:4], prefix) {
		t.Fatal("AppendMarshal clobbered the prefix")
	}
	if !bytes.Equal(out[4:], plain) {
		t.Fatal("AppendMarshal encoding differs from Marshal")
	}
	// Into a presized buffer no growth may occur.
	dst := make([]byte, 0, f.MarshalSize())
	out2 := f.AppendMarshal(dst)
	if &out2[0] != &dst[:1][0] {
		t.Fatal("AppendMarshal must not reallocate a sufficient buffer")
	}
	g, err := UnmarshalField(out2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || g.Box != f.Box {
		t.Fatalf("round trip header mismatch: %q %v", g.Name, g.Box)
	}
	for i := range f.Data {
		if g.Data[i] != f.Data[i] {
			t.Fatalf("round trip data mismatch at %d", i)
		}
	}
}

// TestRowWalksSubBoxInExtractOrder: walking any linear range of a
// sub-box through Row visits Extract(sub).Data[lo:hi], value for value,
// without copying, and cuts a run at the range's end mid-row.
func TestRowWalksSubBoxInExtractOrder(t *testing.T) {
	box := Box{Lo: [3]int{-1, 2, 0}, Hi: [3]int{6, 9, 5}}
	f := NewField("f", box)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	sub := Box{Lo: [3]int{0, 3, 1}, Hi: [3]int{5, 8, 4}}
	want := f.Extract(sub).Data
	for _, r := range [][2]int{{0, len(want)}, {3, 4}, {7, 31}, {12, 12}} {
		var got []float64
		for at := r[0]; at < r[1]; {
			row := f.Row(sub, at, r[1])
			if len(row) == 0 || len(row) > 5 {
				t.Fatalf("range %v: a run of %d cells at cell %d", r, len(row), at)
			}
			got = append(got, row...)
			at += len(row)
		}
		if len(got) != r[1]-r[0] {
			t.Fatalf("range %v: walked %d cells", r, len(got))
		}
		for i, v := range got {
			if v != want[r[0]+i] {
				t.Fatalf("range %v: cell %d is %g, want %g", r, r[0]+i, v, want[r[0]+i])
			}
		}
	}
	f.Row(sub, 0, 5)[2] = -1
	if f.At(2, 3, 1) != -1 {
		t.Fatal("Row must alias the field's data, not copy it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a sub-box outside the field must panic")
		}
	}()
	f.Row(box.Grow(1), 0, 1)
}

// TestFloatTailReportsShape: FloatTail reports the same offset as
// FloatTailOffset and the box's x and y extents, or no shape when the
// box does not hold exactly the counted values.
func TestFloatTailReportsShape(t *testing.T) {
	f := NewField("T", Box{Lo: [3]int{1, 2, 3}, Hi: [3]int{4, 6, 8}})
	p := f.Marshal()
	off, nx, ny, ok := FloatTail(p)
	if want, _ := FloatTailOffset(p); !ok || off != want || nx != 3 || ny != 4 {
		t.Fatalf("FloatTail = %d, %dx%d, %v; want %d, 3x4, true", off, nx, ny, ok, want)
	}
	binary.LittleEndian.PutUint64(p[off-2*8:], 7) // Hi[2]: the box now holds 48 points, the tail 60
	if _, nx, ny, ok := FloatTail(p); !ok || nx != 0 || ny != 0 {
		t.Fatalf("box of the wrong size: FloatTail = %dx%d, %v; want no shape, true", nx, ny, ok)
	}
	if _, _, _, ok := FloatTail(p[:len(p)-8]); ok {
		t.Fatal("a tail one value short of its count must not parse")
	}
}
