package render

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testImage builds a deterministic gradient-with-alpha test frame.
func testImage(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := float64(x+y) / float64(w+h-2)
			im.Set(x, y, a*float64(x)/float64(w-1), a*float64(y)/float64(h-1), a*0.25, a)
		}
	}
	return im
}

// TestEncodePNGGolden pins the encoder's exact bytes: the store's
// content digests are derived from them, so any byte drift would
// invalidate every previously stored frame address.
func TestEncodePNGGolden(t *testing.T) {
	im := testImage(31, 17) // odd sizes exercise row stride edges
	got, err := im.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "gradient.png")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("PNG bytes drifted from golden: %d bytes vs %d, digest %s vs %s",
			len(got), len(want), digest(got), digest(want))
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestEncodePNGDeterministic: re-encoding the same image must produce
// identical bytes (and so an identical content digest).
func TestEncodePNGDeterministic(t *testing.T) {
	im := testImage(64, 48)
	a, err := im.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same image differ")
	}
}

// toNRGBA converts im to an 8-bit image over a background color: the
// pixels the stdlib decoder must read back from AppendPNG's stream.
func toNRGBA(im *Image, bg color.NRGBA) *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		im.nrgbaRow(out.Pix[y*out.Stride:], y, bg)
	}
	return out
}

// TestEncodePNGDecodes: the hand-rolled stream must be a valid PNG
// whose pixels match toNRGBA — decoded by the stdlib as a cross-check,
// for one stored block, for two, and for scanlines that fill their
// blocks exactly — in one slice with no spare capacity.
func TestEncodePNGDecodes(t *testing.T) {
	for _, size := range [][2]int{{33, 9}, {200, 100}, {1 + maxStored/4, 3}, {1, 2 * maxStored / 5}} {
		im := testImage(size[0], size[1])
		raw, err := im.AppendPNG(nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap(raw) != len(raw) {
			t.Errorf("%dx%d: encoded into cap %d, len %d: the size was not exact", im.W, im.H, cap(raw), len(raw))
		}
		dec, err := png.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%dx%d: stdlib decode: %v", im.W, im.H, err)
		}
		b := dec.Bounds()
		if b.Dx() != im.W || b.Dy() != im.H {
			t.Fatalf("decoded size %dx%d, want %dx%d", b.Dx(), b.Dy(), im.W, im.H)
		}
		want := toNRGBA(im, color.NRGBA{A: 255})
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				r1, g1, b1, a1 := dec.At(x, y).RGBA()
				r2, g2, b2, a2 := want.At(x, y).RGBA()
				if r1 != r2 || g1 != g2 || b1 != b2 || a1 != a2 {
					t.Fatalf("%dx%d pixel (%d,%d): got %v,%v,%v,%v want %v,%v,%v,%v",
						im.W, im.H, x, y, r1, g1, b1, a1, r2, g2, b2, a2)
				}
			}
		}
	}
}

// TestAppendPNGExactSizeAndPrefix: appending after a prefix leaves the
// prefix intact and encodes the same bytes as into nothing, a
// sufficient buffer is written in place, and nil grows to the exact
// size.
func TestAppendPNGExactSizeAndPrefix(t *testing.T) {
	im := testImage(33, 9)
	plain, err := im.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("HDR!")
	out, err := im.AppendPNG(append([]byte{}, prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:4], prefix) {
		t.Fatal("AppendPNG clobbered the prefix")
	}
	if !bytes.Equal(out[4:], plain) {
		t.Fatal("AppendPNG after a prefix encodes differently")
	}
	dst := make([]byte, 0, len(plain))
	out2, err := im.AppendPNG(dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out2[0] != &dst[:1][0] {
		t.Fatal("AppendPNG must not reallocate a sufficient buffer")
	}
	nilOut, err := im.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilOut, plain) || cap(nilOut) != len(plain) {
		t.Fatalf("AppendPNG(nil) gave %d bytes in cap %d, want exactly %d", len(nilOut), cap(nilOut), len(plain))
	}
	if kept, err := (&Image{}).AppendPNG(prefix); err == nil || !bytes.Equal(kept, prefix) {
		t.Fatalf("an empty image must fail and hand dst back: got %q, %v", kept, err)
	}
}

func TestEncodePNGEmpty(t *testing.T) {
	im := &Image{}
	if _, err := im.AppendPNG(nil); err == nil {
		t.Fatal("expected error for empty image")
	}
}

func TestOrbitDirs(t *testing.T) {
	one := OrbitDirs(1)
	if len(one) != 1 || one[0] != DefaultDir {
		t.Fatalf("OrbitDirs(1) = %v, want the default direction %v", one, DefaultDir)
	}
	dirs := OrbitDirs(6)
	if len(dirs) != 6 {
		t.Fatalf("got %d dirs", len(dirs))
	}
	for i, d := range dirs {
		if math.Abs(norm(d)-norm(DefaultDir)) > 1e-12 {
			t.Fatalf("camera %d: orbit changed the direction's length", i)
		}
		if d[1] != DefaultDir[1] {
			t.Fatalf("camera %d: elevation drifted", i)
		}
	}
	if OrbitDirs(6)[3] != dirs[3] {
		t.Fatal("orbit not deterministic")
	}
	if CameraName(3) != "cam03" || CameraName(11) != "cam11" {
		t.Fatalf("unexpected camera names %q %q", CameraName(3), CameraName(11))
	}
}

func TestImagePoolReuseAndLedger(t *testing.T) {
	before := ImagesOutstanding()
	im := GetImage(8, 4)
	if len(im.Pix) != 8*4*4 {
		t.Fatalf("got %d floats", len(im.Pix))
	}
	for i := range im.Pix {
		if im.Pix[i] != 0 {
			t.Fatal("pooled image not zeroed")
		}
	}
	im.Set(1, 1, 1, 1, 1, 1)
	if ImagesOutstanding() != before+1 {
		t.Fatalf("outstanding %d, want %d", ImagesOutstanding(), before+1)
	}
	PutImage(im)
	if ImagesOutstanding() != before {
		t.Fatalf("outstanding %d after Put, want %d", ImagesOutstanding(), before)
	}
	// A recycled buffer must come back zeroed.
	im2 := GetImage(8, 4)
	for i := range im2.Pix {
		if im2.Pix[i] != 0 {
			t.Fatal("recycled image not zeroed")
		}
	}
	PutImage(im2)
	PutImage(nil) // must be a no-op
	if ImagesOutstanding() != before {
		t.Fatalf("outstanding %d after nil Put, want %d", ImagesOutstanding(), before)
	}
}

// A recycled framebuffer outlives collections, so how many of them fall
// inside a run does not change what the run allocates.
func TestImagePoolKeepsFramesAcrossCollections(t *testing.T) {
	im := GetImage(16, 8)
	PutImage(im)
	runtime.GC()
	runtime.GC()
	got := GetImage(16, 8)
	defer PutImage(got)
	if got != im {
		t.Fatal("a recycled framebuffer was dropped at a collection")
	}
}
