package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"insitu/internal/bufpool"
)

// fieldLike builds a payload shaped like a grid.Field marshal: a small
// opaque header followed by a float64 tail.
func fieldLike(rng *rand.Rand, header, count int, gen func(i int) float64) []byte {
	p := make([]byte, header+8*count)
	rng.Read(p[:header])
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(p[header+8*i:], math.Float64bits(gen(i)))
	}
	return p
}

// evolve perturbs a payload's float tail like one simulation timestep
// with a localized feature: roughly every eighth value moves slightly,
// the rest are untouched.
func evolve(rng *rand.Rand, p []byte, header int) []byte {
	q := append([]byte(nil), p...)
	for off := header; off < len(q); off += 8 {
		if rng.Intn(8) != 0 {
			continue
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(q[off:]))
		v += 1e-6 * (rng.Float64() - 0.5)
		binary.LittleEndian.PutUint64(q[off:], math.Float64bits(v))
	}
	return q
}

func decodeOK(t *testing.T, r *Registry, res Result, wantID ID) []byte {
	t.Helper()
	id, rawSize, _, _, err := splitFrame(res.Frame)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if id != wantID {
		t.Fatalf("frame codec = %v, want %v", id, wantID)
	}
	raw, id2, err := r.Decode(res.Frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id2 != wantID || len(raw) != rawSize {
		t.Fatalf("decode returned id %v size %d, want %v %d", id2, len(raw), wantID, rawSize)
	}
	return raw
}

// TestDeltaRoundTripExact: delta reconstruction is bit-exact across a
// sequence of smoothly evolving versions, and the steady-state frames
// are much smaller than the raw payloads.
func TestDeltaRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry()
	key := Key("viz", 0)
	p := fieldLike(rng, 76, 4096, func(i int) float64 {
		return math.Sin(float64(i) / 50)
	})
	var wire, raw int
	for v := 1; v <= 10; v++ {
		res, err := r.Encode(Spec{ID: Delta}, key, v, p, 0)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if v == 1 {
			// Version 1 has no base: the payload ships raw.
			if res.Frame != nil {
				t.Fatalf("v1 has no base but framed %d bytes", len(res.Frame))
			}
			p = evolve(rng, p, 76)
			continue
		}
		got := decodeOK(t, r, res, Delta)
		if !bytes.Equal(got, p) {
			t.Fatalf("v%d: delta round trip not bit-exact", v)
		}
		if res.MaxError != 0 {
			t.Fatalf("v%d: delta reported max error %g, want 0", v, res.MaxError)
		}
		wire += len(res.Frame)
		raw += len(p)
		p = evolve(rng, p, 76)
	}
	ratio := float64(raw) / float64(wire)
	t.Logf("delta steady-state compression: %.2fx (%d -> %d bytes)", ratio, raw, wire)
	if ratio < 3 {
		t.Fatalf("delta compression %.2fx on sparse evolution, want >= 3x", ratio)
	}
}

// TestDeltaIdenticalPayloadCollapses: an unchanged payload XORs to all
// zeros and the frame collapses to a few dozen bytes.
func TestDeltaIdenticalPayloadCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRegistry()
	key := Key("ckpt", 3)
	p := fieldLike(rng, 20, 8192, func(i int) float64 { return float64(i) })
	if _, err := r.Encode(Spec{ID: Delta}, key, 1, p, 0); err != nil {
		t.Fatal(err)
	}
	res, err := r.Encode(Spec{ID: Delta}, key, 2, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frame) > 128 {
		t.Fatalf("identical payload framed to %d bytes, want tiny", len(res.Frame))
	}
	if got := decodeOK(t, r, res, Delta); !bytes.Equal(got, p) {
		t.Fatal("round trip broken")
	}
}

// TestDeltaRandomPayloadsStayLiteral: incompressible random bytes must
// not inflate — the payload ships raw (identity), and each version is
// still retained as the next one's base.
func TestDeltaRandomPayloadsStayLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRegistry()
	key := Key("rand", 0)
	for v := 1; v <= 3; v++ {
		p := make([]byte, 4096)
		rng.Read(p)
		res, err := r.Encode(Spec{ID: Delta}, key, v, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame != nil {
			t.Fatalf("v%d: random payload framed to %d bytes from %d, want raw", v, len(res.Frame), len(p))
		}
	}
	if n := r.Bases(); n != 3 {
		t.Fatalf("store retains %d bases, want 3", n)
	}
}

// TestDeltaSizeChangeFallsBackToLiteral: a payload whose size differs
// from its base (a shaped step) ships raw, and the version after it
// delta-encodes against it.
func TestDeltaSizeChangeFallsBackToLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRegistry()
	key := Key("viz", 1)
	p1 := fieldLike(rng, 12, 1000, func(i int) float64 { return float64(i) })
	p2 := fieldLike(rng, 12, 125, func(i int) float64 { return float64(i) })
	if _, err := r.Encode(Spec{ID: Delta}, key, 1, p1, 0); err != nil {
		t.Fatal(err)
	}
	res, err := r.Encode(Spec{ID: Delta}, key, 2, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame != nil {
		t.Fatalf("size-changed payload framed to %d bytes, want raw", len(res.Frame))
	}
	res, err = r.Encode(Spec{ID: Delta}, key, 3, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeOK(t, r, res, Delta); !bytes.Equal(got, p2) {
		t.Fatal("the version after a size change must delta-encode against it")
	}
}

// TestEncodeShipsIdentityWhenNotSmaller: a frame that would not be
// smaller than its payload is not shipped — a 108 B payload whose delta
// would cost more encodes to no frame, which the fabric registers as
// Identity — yet the payload is still retained, so the next version
// delta-encodes against it.
func TestEncodeShipsIdentityWhenNotSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := NewRegistry()
	key := Key("autocorr", 0)
	p1, p2 := make([]byte, 108), make([]byte, 108)
	rng.Read(p1)
	rng.Read(p2)
	for v, p := range [][]byte{p1, p2} {
		res, err := r.Encode(Spec{ID: Delta}, key, v+1, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame != nil {
			t.Fatalf("v%d: framed %d bytes for a %d-byte payload, want Identity", v+1, len(res.Frame), len(p))
		}
	}
	res, err := r.Encode(Spec{ID: Delta}, key, 3, p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeOK(t, r, res, Delta); !bytes.Equal(got, p2) {
		t.Fatal("round trip broken")
	}
	if _, base, _, _, _ := parseStreamMeta(frameMeta(res.Frame)); base != 2 {
		t.Fatalf("v3 names base %d, want the identity-shipped v2", base)
	}
}

// frameMeta returns a well-formed frame's codec metadata.
func frameMeta(frame []byte) []byte {
	_, _, meta, _, _ := splitFrame(frame)
	return meta
}

// TestDeltaEvictedBase: decoding a frame whose base fell out of the
// retention window returns ErrNoBase, typed.
func TestDeltaEvictedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRegistry()
	key := Key("old", 0)
	p := fieldLike(rng, 8, 512, func(i int) float64 { return float64(i) })
	if _, err := r.Encode(Spec{ID: Delta}, key, 1, p, 0); err != nil {
		t.Fatal(err)
	}
	res, err := r.Encode(Spec{ID: Delta}, key, 2, evolve(rng, p, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), res.Frame...)
	// Push the base (version 1) out of the ring.
	for v := 3; v < 3+2*baseRetention; v++ {
		p = evolve(rng, p, 8)
		if _, err := r.Encode(Spec{ID: Delta}, key, v, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Decode(frame); !errors.Is(err, ErrNoBase) {
		t.Fatalf("decode with evicted base: %v, want ErrNoBase", err)
	}
}

// TestDeltaHostileRawSize: a delta frame whose header declares a raw
// size no resident base has fails with ErrNoBase before anything is
// allocated for that size — the decoder used to draw two buffers of it
// first, so a 12-byte header could ask for 8 GB.
func TestDeltaHostileRawSize(t *testing.T) {
	r := NewRegistry()
	p := fieldLike(rand.New(rand.NewSource(5)), 8, 512, func(i int) float64 { return float64(i) })
	if _, err := r.Encode(Spec{ID: Delta}, "k", 1, p, 0); err != nil {
		t.Fatal(err)
	}
	res, err := r.Encode(Spec{ID: Delta}, "k", 2, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), res.Frame...)
	binary.LittleEndian.PutUint32(frame[4:8], 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = r.Decode(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNoBase) {
		t.Fatalf("decode with a 64 MB raw size: %v, want ErrNoBase", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decode allocated %d bytes for a raw size no base has", grew)
	}
}

// TestQuantizeErrorBound: on randomized fields, quantize reconstruction
// error stays within the configured bound and the packed frame is at
// least 3x smaller than raw.
func TestQuantizeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := NewRegistry()
	for trial := 0; trial < 20; trial++ {
		header := 4 + rng.Intn(64)
		count := 256 + rng.Intn(4096)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		p := fieldLike(rng, header, count, func(i int) float64 {
			return scale * (rng.Float64()*2 - 1)
		})
		bound := scale * math.Pow(10, float64(-1-rng.Intn(4)))
		res, err := r.Encode(Spec{ID: Quantize, MaxError: bound}, "q", trial, p, header)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.MaxError > bound {
			t.Fatalf("trial %d: reported max error %g exceeds bound %g", trial, res.MaxError, bound)
		}
		got := decodeOK(t, r, res, Quantize)
		if !bytes.Equal(got[:header], p[:header]) {
			t.Fatalf("trial %d: header bytes not verbatim", trial)
		}
		worst := 0.0
		for i := 0; i < count; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(p[header+8*i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(got[header+8*i:]))
			if e := math.Abs(a - b); e > worst {
				worst = e
			}
		}
		if worst > bound {
			t.Fatalf("trial %d: actual error %g exceeds bound %g", trial, worst, bound)
		}
		if worst > res.MaxError {
			t.Fatalf("trial %d: actual error %g exceeds reported %g", trial, worst, res.MaxError)
		}
		if ratio := float64(len(p)) / float64(len(res.Frame)); ratio < 1.5 {
			t.Fatalf("trial %d: quantize ratio %.2fx (bound %g over scale %g)", trial, ratio, bound, scale)
		}
	}
}

// TestQuantizeDefaultBound: the default relative bound packs to ~13
// bits per value, comfortably over 3x.
func TestQuantizeDefaultBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	p := fieldLike(rng, 76, 8192, func(i int) float64 { return rng.NormFloat64() })
	res, err := r.Encode(Spec{ID: Quantize}, "q", 1, p, 76)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(p)) / float64(len(res.Frame))
	t.Logf("default quantize: %.2fx (%d -> %d bytes), max err %g", ratio, len(p), len(res.Frame), res.MaxError)
	if ratio < 3 {
		t.Fatalf("default quantize ratio %.2fx, want >= 3x", ratio)
	}
	got := decodeOK(t, r, res, Quantize)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 8192; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[76+8*i:]))
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	bound := DefaultRelError * (hi - lo)
	for i := 0; i < 8192; i++ {
		a := math.Float64frombits(binary.LittleEndian.Uint64(p[76+8*i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(got[76+8*i:]))
		if math.Abs(a-b) > bound {
			t.Fatalf("value %d: error %g over default bound %g", i, math.Abs(a-b), bound)
		}
	}
}

// TestQuantizeNonFiniteFallsBackLiteral: NaN/Inf payloads ship raw
// (identity), so they arrive bit-exactly.
func TestQuantizeNonFiniteFallsBackLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := NewRegistry()
	p := fieldLike(rng, 16, 128, func(i int) float64 {
		if i == 77 {
			return math.NaN()
		}
		return float64(i)
	})
	res, err := r.Encode(Spec{ID: Quantize}, "q", 1, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame != nil || res.MaxError != 0 {
		t.Fatalf("non-finite payload framed %d bytes at error %g, want raw", len(res.Frame), res.MaxError)
	}
}

// TestQuantizeConstantField: a constant tail packs to one bit per
// value with zero error.
func TestQuantizeConstantField(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewRegistry()
	p := fieldLike(rng, 8, 1024, func(int) float64 { return 3.25 })
	res, err := r.Encode(Spec{ID: Quantize}, "q", 1, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError != 0 {
		t.Fatalf("constant field error %g, want 0", res.MaxError)
	}
	if got := decodeOK(t, r, res, Quantize); !bytes.Equal(got, p) {
		t.Fatal("constant field must reconstruct exactly")
	}
}

// TestIdentitySpecReturnsNoFrame: the identity spec encodes to a nil
// frame, telling the transport to register raw bytes unchanged.
func TestIdentitySpecReturnsNoFrame(t *testing.T) {
	r := NewRegistry()
	res, err := r.Encode(Spec{}, "k", 1, []byte{1, 2, 3}, 0)
	if err != nil || res.Frame != nil {
		t.Fatalf("identity encode = (%v, %v), want nil frame", res.Frame, err)
	}
}

// TestDecodeTypedErrors: the malformed-frame taxonomy returns the
// right sentinel for each defect, never panicking.
func TestDecodeTypedErrors(t *testing.T) {
	r := NewRegistry()
	p := fieldLike(rand.New(rand.NewSource(11)), 16, 64, func(i int) float64 { return float64(i) })
	res, err := r.Encode(Spec{ID: Quantize}, "k", 1, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), res.Frame...)

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(f []byte) []byte { return f[:4] }, ErrBadFrame},
		{"magic", func(f []byte) []byte { f[0] = 0; return f }, ErrBadFrame},
		{"version", func(f []byte) []byte { f[2] = 9; return f }, ErrBadFrame},
		{"codec-id", func(f []byte) []byte { f[3] = 200; return f }, ErrUnknownCodec},
		{"meta-overrun", func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[8:12], uint32(len(f)))
			return f
		}, ErrTruncated},
		{"key-overrun", func(f []byte) []byte {
			binary.LittleEndian.PutUint16(f[headerSize+9:], 200)
			return f
		}, ErrBadMeta},
		{"predictor", func(f []byte) []byte { f[headerSize] = 2; return f }, ErrBadMeta},
		{"truncated-body", func(f []byte) []byte { return f[:len(f)-3] }, ErrTruncated},
		{"raw-size", func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[4:8], uint32(len(p)+8))
			return f
		}, ErrTruncated},
	}
	for _, tc := range cases {
		f := tc.mut(append([]byte(nil), good...))
		if _, _, err := r.Decode(f); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode = %v, want %v", tc.name, err, tc.want)
		}
	}

	// The residual stream's own defects, on a shaped 4x4x4 frame and on
	// hand-packed ones.
	res, err = r.Encode(Spec{ID: Quantize, NX: 4, NY: 4}, "s", 1, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	shaped := append([]byte(nil), res.Frame...)
	qm := headerSize + streamMetaLen("s")
	stream := qm + quantMetaLen + 16
	nbits := int(shaped[qm+4])
	setHeader := func(h int) func([]byte) []byte {
		return func(f []byte) []byte {
			f[stream] = f[stream]&^(1<<blockHeaderBits-1) | byte(h)
			return f
		}
	}
	setShape := func(nx, ny uint32) func([]byte) []byte {
		return func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[qm+21:], nx)
			binary.LittleEndian.PutUint32(f[qm+25:], ny)
			return f
		}
	}
	streamCases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"width-over-bits", setHeader(nbits + 1), ErrBadMeta},
		{"width-over-bits+4", setHeader(nbits + 5), ErrBadMeta},
		{"width-63", setHeader(63), ErrBadMeta},
		{"rice-parameter-at-bits", setHeader(residualFlag | (nbits + 1)), ErrBadMeta},
		{"rice-parameter-63", setHeader(residualFlag | 63), ErrBadMeta},
		{"ends-mid-block", func(f []byte) []byte { return f[:stream+2] }, ErrTruncated},
		{"ends-before-header", func(f []byte) []byte { return f[:stream] }, ErrTruncated},
		{"trailing-bytes", func(f []byte) []byte { return append(f, 0) }, ErrSizeMismatch},
		{"shape-not-dividing", setShape(3, 4), ErrBadMeta},
		{"shape-zero", setShape(0, 4), ErrBadMeta},
		{"shape-overflow", setShape(math.MaxUint32, math.MaxUint32), ErrBadMeta},
		{"shape-beyond-count", setShape(128, 1), ErrBadMeta},
		{"residual-level-high", func([]byte) []byte {
			return packedFrame(4, 16, 1, 16, func(w *bitWriter) {
				w.write(residualFlag|3, blockHeaderBits) // Rice, k = 2
				for i := 0; i < 16; i++ {
					v := uint32(0)
					if i < 3 {
						v = 14 // zigzag 14: +7 on the previous level, 21 by the third
					}
					writeRice(w, v, 2)
				}
			})
		}, ErrBadMeta},
		{"residual-level-negative", func([]byte) []byte {
			return packedFrame(4, 16, 1, 16, func(w *bitWriter) {
				w.write(residualFlag|1, blockHeaderBits) // Rice, k = 0
				writeRice(w, 1, 0)                       // zigzag 1: residual -1 against a prediction of 0
				for i := 1; i < 16; i++ {
					writeRice(w, 0, 0)
				}
			})
		}, ErrBadMeta},
		{"unary-over-budget", func([]byte) []byte {
			// 70 zeros: one quotient over the block's 16x4-bit budget.
			return packedFrame(4, 16, 1, 16, func(w *bitWriter) {
				w.write(residualFlag|1, blockHeaderBits)
				w.write(0, 32)
				w.write(0, 32)
				w.write(1<<6, 7)
			})
		}, ErrBadMeta},
		{"unary-past-stream", func([]byte) []byte {
			return packedFrame(4, 16, 1, 16, func(w *bitWriter) {
				w.write(residualFlag|1, blockHeaderBits)
				w.write(0, 20)
			})
		}, ErrTruncated},
	}
	for _, tc := range streamCases {
		f := tc.mut(append([]byte(nil), shaped...))
		if _, _, err := r.Decode(f); !errors.Is(err, tc.want) {
			t.Errorf("%s: decode = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The hand packer itself makes decodable frames, raw and Rice-coded.
	for name, fill := range map[string]func(*bitWriter){
		"raw": func(w *bitWriter) {
			w.write(4, blockHeaderBits)
			for i := 0; i < 16; i++ {
				w.write(uint64(i), 4)
			}
		},
		"rice": func(w *bitWriter) {
			w.write(residualFlag|1, blockHeaderBits)
			for i := 0; i < 16; i++ {
				writeRice(w, uint32(min(i, 1)*2), 0) // 0, then +1 a value
			}
		},
	} {
		raw, _, err := r.Decode(packedFrame(4, 16, 1, 16, fill))
		if err != nil {
			t.Fatalf("hand-packed %s frame: %v", name, err)
		}
		for i := 0; i < 16; i++ {
			if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); got != float64(i)/15 {
				t.Fatalf("hand-packed %s frame: value %d is %g, want %g", name, i, got, float64(i)/15)
			}
		}
	}
}

// TestDecodeTemporalTypedErrors: a temporal frame whose base is gone,
// or resident in another form, fails with ErrNoBase — before anything
// is allocated for a hostile raw size.
func TestDecodeTemporalTypedErrors(t *testing.T) {
	const nx, ny, nz, header = 8, 8, 4, 24
	p1 := fieldLike(rand.New(rand.NewSource(18)), header, nx*ny*nz, func(i int) float64 { return math.Sin(float64(i) / 9) })
	p2 := withTail(p1, header, func(i int) float64 { return math.Sin(float64(i)/9 + 0.01) })
	spec := Spec{ID: Quantize, MaxError: 1e-4, NX: nx, NY: ny}
	r := NewRegistry()
	var temporal []byte
	for v, p := range [][]byte{p1, p2} {
		res, err := r.Encode(spec, "t", v+1, p, header)
		if err != nil {
			t.Fatal(err)
		}
		temporal = res.Frame
	}
	if _, base, ok, _, _ := parseStreamMeta(frameMeta(temporal)); !ok || base != 1 {
		t.Fatalf("v2 names base %d (predictor %v), want temporal on v1", base, ok)
	}
	if _, _, err := r.Decode(temporal); err != nil {
		t.Fatalf("temporal frame with its base resident: %v", err)
	}

	if _, _, err := NewRegistry().Decode(temporal); !errors.Is(err, ErrNoBase) {
		t.Errorf("missing base: decode = %v, want ErrNoBase", err)
	}
	hostile := append([]byte(nil), temporal...)
	binary.LittleEndian.PutUint32(hostile[4:8], 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := r.Decode(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNoBase) {
		t.Errorf("64 MB raw size: decode = %v, want ErrNoBase", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decode allocated %d bytes for a raw size no base has", grew)
	}
	// Version 1 retained again, now as an exact base (a delta rung).
	r.SeedBase("t", 1, p1)
	if _, _, err := r.Decode(temporal); !errors.Is(err, ErrNoBase) {
		t.Errorf("base in the exact form: decode = %v, want ErrNoBase", err)
	}
}

// withTail returns a copy of p whose float tail after header holds
// gen's values: the next version of the same stream.
func withTail(p []byte, header int, gen func(i int) float64) []byte {
	q := append([]byte(nil), p...)
	for i := 0; header+8*i < len(q); i++ {
		binary.LittleEndian.PutUint64(q[header+8*i:], math.Float64bits(gen(i)))
	}
	return q
}

// writeRice writes v Rice-coded with parameter k, as bitWriter.block
// does.
func writeRice(w *bitWriter, v uint32, k int) {
	w.write(1<<(v>>k), int(v>>k)+1)
	w.write(uint64(v)&(1<<k-1), k)
}

// packedFrame builds a spatial quantize frame of count levels with no
// bytes before the tail and an empty key, grid [0, 1] in 2^nbits
// levels, whose stream fill writes.
func packedFrame(nbits, nx, ny, count int, fill func(*bitWriter)) []byte {
	w := bitWriter{buf: make([]byte, 8*count+8)}
	fill(&w)
	n := w.finish()
	metaLen := streamMetaLen("") + quantMetaLen
	f := make([]byte, headerSize+metaLen+n)
	f[0], f[1], f[2], f[3] = magic0, magic1, frameVersion, byte(Quantize)
	binary.LittleEndian.PutUint32(f[4:8], uint32(8*count))
	binary.LittleEndian.PutUint32(f[8:12], uint32(metaLen))
	putStreamMeta(f[headerSize:], -1, "")
	meta := f[headerSize+streamMetaLen(""):]
	meta[4] = byte(nbits)
	binary.LittleEndian.PutUint64(meta[13:21], math.Float64bits(1/float64(uint64(1)<<nbits-1)))
	binary.LittleEndian.PutUint32(meta[21:25], uint32(nx))
	binary.LittleEndian.PutUint32(meta[25:29], uint32(ny))
	copy(f[headerSize+metaLen:], w.buf[:n])
	return f
}

// TestStoreRetention: the base store keeps the newest baseRetention
// versions per key and recycles evicted buffers.
func TestStoreRetention(t *testing.T) {
	s := store{m: make(map[string][]storeEntry)}
	for v := 1; v <= baseRetention+5; v++ {
		s.putExact("k", v, []byte{byte(v)})
	}
	if s.with("k", 1, func(*storeEntry) {}) {
		t.Fatal("version 1 must be evicted")
	}
	ok := s.with("k", baseRetention+5, func(e *storeEntry) {
		if e.buf[0] != byte(baseRetention+5) {
			t.Fatal("wrong payload retained")
		}
	})
	if !ok {
		t.Fatal("newest version must be resident")
	}
	if len(s.m["k"]) != baseRetention {
		t.Fatalf("retained %d entries, want %d", len(s.m["k"]), baseRetention)
	}
	if v := s.newestBelow("k", 100, func(*storeEntry) {}); v != baseRetention+5 {
		t.Fatalf("newest below 100 is %d, want %d", v, baseRetention+5)
	}
	if v := s.newestBelow("k", 7, func(*storeEntry) {}); v != 6 {
		t.Fatalf("newest below 7 is %d, want 6", v)
	}
	if v := s.newestBelow("k", 6, func(*storeEntry) {}); v != -1 {
		t.Fatalf("newest below the evicted 5 is %d, want -1", v)
	}
}

// TestRLEZeroRoundTrip exercises the run-length layer directly on
// pathological shapes: all zeros, no zeros, alternating runs.
func TestRLEZeroRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := [][]byte{
		make([]byte, 1000),
		func() []byte { b := make([]byte, 1000); rng.Read(b); return b }(),
		func() []byte {
			b := make([]byte, 1000)
			for i := range b {
				if i/7%2 == 0 {
					b[i] = byte(i)
				}
			}
			return b
		}(),
		{},
		{0},
		{1},
	}
	for i, src := range shapes {
		dst := make([]byte, len(src)+2*len(src)/3+64)
		n, ok := rleEncodeZero(dst, src)
		if !ok {
			continue // inflation fallback is exercised elsewhere
		}
		out := make([]byte, len(src))
		if err := rleDecodeZero(out, dst[:n]); err != nil {
			t.Fatalf("shape %d: decode: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("shape %d: round trip broken", i)
		}
	}
}

// oracleQuantize is the fixed-width packer the residual stream
// replaced, kept as the reference: the same grid (origin, step, bits)
// and levels, every level written in bits bits, LSB-first, after the
// verbatim header bytes. It returns that frame and the reported error;
// all payloads it is given are finite and need at most 32 bits.
func oracleQuantize(spec Spec, raw []byte, floatOff int) ([]byte, float64) {
	count := (len(raw) - floatOff) / 8
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < count; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[floatOff+8*i:]))
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	rng := hi - lo
	maxErr := spec.MaxError
	if maxErr <= 0 {
		maxErr = DefaultRelError * rng
	}
	nbits := 1
	for ; nbits <= maxQuantBits; nbits++ {
		if levels := float64(uint64(1)<<uint(nbits) - 1); rng == 0 || rng/levels/2 <= maxErr {
			break
		}
	}
	levels := uint64(1)<<uint(nbits) - 1
	step := 0.0
	if rng > 0 {
		step = rng / float64(levels)
	}
	frame := make([]byte, 22+floatOff+(count*nbits+7)/8)
	frame[5] = byte(nbits)
	binary.LittleEndian.PutUint32(frame[1:5], uint32(floatOff))
	binary.LittleEndian.PutUint64(frame[6:14], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(frame[14:22], math.Float64bits(step))
	copy(frame[22:], raw[:floatOff])
	pk := frame[22+floatOff:]
	var acc uint64
	accBits, out := 0, 0
	actualErr := 0.0
	for i := 0; i < count; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[floatOff+8*i:]))
		var q uint64
		if step > 0 {
			q = min(uint64(math.Round((v-lo)/step)), levels)
		}
		actualErr = math.Max(actualErr, math.Abs(v-(lo+float64(q)*step)))
		acc |= q << uint(accBits)
		for accBits += nbits; accBits >= 8; accBits -= 8 {
			pk[out] = byte(acc)
			out++
			acc >>= 8
		}
	}
	if accBits > 0 {
		pk[out] = byte(acc)
	}
	return frame, actualErr
}

// oracleUnquantize decodes oracleQuantize's frame of a rawSize payload.
func oracleUnquantize(frame []byte, rawSize int) []byte {
	floatOff := int(binary.LittleEndian.Uint32(frame[1:5]))
	nbits := int(frame[5])
	lo := math.Float64frombits(binary.LittleEndian.Uint64(frame[6:14]))
	step := math.Float64frombits(binary.LittleEndian.Uint64(frame[14:22]))
	raw := make([]byte, rawSize)
	copy(raw, frame[22:22+floatOff])
	pk := frame[22+floatOff:]
	mask := uint64(1)<<uint(nbits) - 1
	var acc uint64
	accBits, in := 0, 0
	for i := 0; i < (rawSize-floatOff)/8; i++ {
		for ; accBits < nbits; accBits += 8 {
			acc |= uint64(pk[in]) << uint(accBits)
			in++
		}
		q := acc & mask
		acc >>= uint(nbits)
		accBits -= nbits
		binary.LittleEndian.PutUint64(raw[floatOff+8*i:], math.Float64bits(lo+float64(q)*step))
	}
	return raw
}

// TestQuantizeMatchesFixedWidthOracle: over shapes (a z column, an x
// row, a y column, a box and an unknown shape), fields (constant,
// smooth, white noise) and error bounds (the relative default, one bit,
// 32 bits, a typical absolute bound), the residual decoder returns the
// fixed-width oracle's bytes exactly and reports the same error; on
// white noise the frame is at most the oracle's plus a 7-bit header per
// block, the stream fields and the 8 bytes of shape. Every frame here
// is spatial-only: each encode is version 1 of its key, so no base
// precedes it.
func TestQuantizeMatchesFixedWidthOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := NewRegistry()
	shapes := []struct {
		name       string
		nx, ny, nz int
		unknown    bool
	}{
		{"1x1xn", 1, 1, 300, false},
		{"nx1x1", 300, 1, 1, false},
		{"1xnx1", 1, 300, 1, false},
		{"nxmxk", 9, 7, 5, false},
		{"unknown", 11, 6, 4, true},
	}
	fields := map[string]func(x, y, z int) float64{
		"constant": func(int, int, int) float64 { return -2.5 },
		"smooth": func(x, y, z int) float64 {
			return 300 + 40*math.Sin(float64(x)/4)*math.Cos(float64(y)/5) + 20*math.Sin(float64(y)/6) + 7*float64(z)
		},
		"noise": func(int, int, int) float64 { return rng.NormFloat64() },
	}
	bounds := map[string]func(rng float64) float64{
		"default": func(float64) float64 { return 0 },
		"1-bit":   func(r float64) float64 { return r },
		"32-bit":  func(r float64) float64 { return r / float64(uint64(1)<<32-1) / 2 },
		"1e-4":    func(float64) float64 { return 1e-4 },
	}
	for _, sh := range shapes {
		for fname, gen := range fields {
			for bname, bound := range bounds {
				count := sh.nx * sh.ny * sh.nz
				const header = 40
				p := fieldLike(rng, header, count, func(i int) float64 {
					return gen(i%sh.nx, i/sh.nx%sh.ny, i/(sh.nx*sh.ny))
				})
				lo, hi := math.Inf(1), math.Inf(-1)
				for i := 0; i < count; i++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(p[header+8*i:]))
					lo, hi = math.Min(lo, v), math.Max(hi, v)
				}
				spec := Spec{ID: Quantize, MaxError: bound(hi - lo), NX: sh.nx, NY: sh.ny}
				if sh.unknown {
					spec.NX, spec.NY = 0, 0
				}
				name := sh.name + "/" + fname + "/" + bname
				res, err := r.Encode(spec, "q", 1, p, header)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, wantErr := oracleQuantize(spec, p, header)
				if bname == "1-bit" && want[5] != 1 || bname == "32-bit" && hi > lo && want[5] != 32 {
					t.Fatalf("%s: oracle packed %d bits", name, want[5])
				}
				got := decodeOK(t, r, res, Quantize)
				if !bytes.Equal(got, oracleUnquantize(want, len(p))) {
					t.Fatalf("%s: decoded bytes differ from the fixed-width oracle", name)
				}
				if res.MaxError != wantErr {
					t.Fatalf("%s: max error %g, oracle %g", name, res.MaxError, wantErr)
				}
				oracleLen := headerSize + len(want)
				if fname == "noise" {
					// The stream fields and the shape are the meta's growth
					// over the oracle's 22 bytes.
					blocks := (count + quantBlock - 1) / quantBlock
					if limit := oracleLen + (blockHeaderBits*blocks+7)/8 + streamMetaLen("q") + quantMetaLen - 22; len(res.Frame) > limit {
						t.Fatalf("%s: noise frame %d bytes, over the oracle's %d plus headers, stream fields and shape (%d)",
							name, len(res.Frame), oracleLen, limit)
					}
				}
				t.Logf("%-26s %6d -> %6d bytes (fixed width %6d)", name, len(p), len(res.Frame), oracleLen)
			}
		}
	}
}

// TestQuantizePredictsAlongShape: on a smooth 3-D field the shaped
// predictor packs smaller than one row of previous-value prediction,
// and both pack smaller than fixed width.
func TestQuantizePredictsAlongShape(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := NewRegistry()
	const nx, ny, nz, header = 16, 32, 16, 76
	p := fieldLike(rng, header, nx*ny*nz, func(i int) float64 {
		x, y, z := float64(i%nx), float64(i/nx%ny), float64(i/(nx*ny))
		return 900 + 300*math.Exp(-((x-8)*(x-8)+(y-16)*(y-16)+(z-8)*(z-8))/60)
	})
	size := func(nx, ny int) int {
		res, err := r.Encode(Spec{ID: Quantize, MaxError: 1e-4, NX: nx, NY: ny}, "q", 1, p, header)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Frame)
	}
	shaped, row := size(nx, ny), size(0, 0)
	fixed, _ := oracleQuantize(Spec{ID: Quantize, MaxError: 1e-4}, p, header)
	t.Logf("3-D %d, one row %d, fixed width %d bytes", shaped, row, headerSize+len(fixed))
	if shaped >= row || row >= headerSize+len(fixed) {
		t.Fatalf("3-D %d, one row %d, fixed width %d: want strictly smaller in that order", shaped, row, headerSize+len(fixed))
	}
}

// TestQuantizeRoundTripAllocatesNothing: once warm, a quantize encode
// of the stream's next version — temporal, against the levels base the
// previous one retained — and the decode of its frame draw every buffer
// from a pool, base copies included.
func TestQuantizeRoundTripAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := NewRegistry()
	const nx, ny, nz, header = 16, 32, 16, 76
	p := fieldLike(rng, header, nx*ny*nz, func(i int) float64 {
		return math.Sin(float64(i%nx)/3) + math.Cos(float64(i/nx%ny)/4) + float64(i/(nx*ny))/8
	})
	spec := Spec{ID: Quantize, MaxError: 1e-4, NX: nx, NY: ny}
	version := 0
	roundTrip := func() {
		version++
		shiftTail(p, header, version)
		res, err := r.Encode(spec, "viz/0", version, p, header)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _, _ := parseStreamMeta(frameMeta(res.Frame)); !ok && version > 1 {
			t.Fatalf("v%d is not predicted from its predecessor", version)
		}
		raw, _, err := r.Decode(res.Frame)
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(res.Frame)
		bufpool.Put(raw)
	}
	// Fill the base ring, so later encodes recycle what they evict.
	for i := 0; i <= baseRetention; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(20, roundTrip); n != 0 {
		t.Fatalf("warm quantize encode+decode allocates %.1f times per round trip, want 0", n)
	}
}

// shiftTail moves every eighth value of p's float tail a little,
// a different eighth each version.
func shiftTail(p []byte, header, version int) {
	for i := header + 8*(version%8); i+8 <= len(p); i += 64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[i:]))
		binary.LittleEndian.PutUint64(p[i:], math.Float64bits(v+1e-3))
	}
}

// TestReleaseBasesRecyclesEveryBase: ReleaseBases empties the base
// store and hands each retained copy back to bufpool, so the next Gets
// of that size take those very buffers instead of new ones.
func TestReleaseBasesRecyclesEveryBase(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	r := NewRegistry()
	p := fieldLike(rng, 24, 600, func(i int) float64 { return float64(i) })
	for _, key := range []string{"a/0", "a/1", "b/0"} {
		for v := 1; v <= 3; v++ {
			if _, err := r.Encode(Spec{ID: Delta}, key, v, p, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := r.Bases(); n != 9 {
		t.Fatalf("store retains %d bases, want 9", n)
	}
	held := map[*byte]bool{}
	for _, entries := range r.bases.m {
		for _, e := range entries {
			held[&e.buf[:1][0]] = true
		}
	}
	r.ReleaseBases()
	if n := r.Bases(); n != 0 {
		t.Fatalf("store retains %d bases after ReleaseBases", n)
	}
	for range held {
		b := bufpool.Get(len(p))
		if !held[&b[0]] {
			t.Fatal("a Get after ReleaseBases took a new buffer while released bases were idle")
		}
	}
}

// TestQuantizeSequencesMatchOracle: over multi-version streams, every
// frame names the base the stream's history allows — its newest
// retained version when that is a quantize base of the same size and
// header bytes, none otherwise — and decodes to the fixed-width
// oracle's bytes with the oracle's error; a delta frame decodes
// exactly. The streams cover a missing base, a size change, changed
// header bytes, a changing grid, a NaN step, a route due every second
// step, and delta and quantize rungs taking turns on one key.
func TestQuantizeSequencesMatchOracle(t *testing.T) {
	const nx, ny, header = 8, 6, 40
	rng := rand.New(rand.NewSource(19))
	hdr, other := make([]byte, header), make([]byte, header)
	rng.Read(hdr)
	rng.Read(other)
	field := func(h []byte, nz int, phase, scale float64) []byte {
		p := append([]byte(nil), h...)
		return withTail(append(p, make([]byte, 8*nx*ny*nz)...), header, func(i int) float64 {
			x, y, z := float64(i%nx), float64(i/nx%ny), float64(i/(nx*ny))
			return scale * (300 + 40*math.Sin(x/4+phase)*math.Cos(y/5) + 7*z)
		})
	}
	nan := field(hdr, 5, 0.3, 1)
	binary.LittleEndian.PutUint64(nan[header+8*17:], math.Float64bits(math.NaN()))
	const raw = -2 // the payload ships unframed
	type step struct {
		id   ID
		v    int
		p    []byte
		base int // the base the frame names, -1 for none
	}
	streams := map[string][]step{
		"consecutive": {
			{Quantize, 1, field(hdr, 5, 0, 1), -1},
			{Quantize, 2, field(hdr, 5, 0.02, 1), 1},
			{Quantize, 3, field(hdr, 5, 0.04, 1), 2},
			{Quantize, 4, field(hdr, 5, 0.06, 1), 3},
		},
		"every-2": {
			{Quantize, 2, field(hdr, 5, 0, 1), -1},
			{Quantize, 4, field(hdr, 5, 0.04, 1), 2},
			{Quantize, 6, field(hdr, 5, 0.08, 1), 4},
		},
		"size-and-header": {
			{Quantize, 1, field(hdr, 5, 0, 1), -1},
			{Quantize, 2, field(hdr, 2, 0.02, 1), -1},
			{Quantize, 3, field(hdr, 2, 0.04, 1), 2},
			{Quantize, 4, field(other, 2, 0.06, 1), -1},
			{Quantize, 5, field(other, 2, 0.08, 1), 4},
		},
		"grid-changes": {
			{Quantize, 1, field(hdr, 5, 0, 1), -1},
			{Quantize, 2, field(hdr, 5, 0.02, 3), 1},
			{Quantize, 3, field(hdr, 5, 0.04, 0.5), 2},
			{Quantize, 4, field(hdr, 5, 0.06, 1e-3), 3},
		},
		"nan": {
			{Quantize, 1, field(hdr, 5, 0, 1), -1},
			{Quantize, 2, nan, raw},
			{Quantize, 3, field(hdr, 5, 0.04, 1), -1},
			{Quantize, 4, field(hdr, 5, 0.06, 1), 3},
		},
		"delta-quantize-switch": {
			{Quantize, 1, field(hdr, 5, 0, 1), -1},
			{Delta, 2, field(hdr, 5, 0.02, 1), raw},
			{Delta, 3, field(hdr, 5, 0.02, 1), 2},
			{Quantize, 4, field(hdr, 5, 0.06, 1), -1},
			{Quantize, 5, field(hdr, 5, 0.08, 1), 4},
			{Delta, 6, field(hdr, 5, 0.08, 1), raw},
		},
	}
	for name, steps := range streams {
		r := NewRegistry()
		for _, st := range steps {
			spec := Spec{ID: st.id, MaxError: 1e-3, NX: nx, NY: ny}
			res, err := r.Encode(spec, "s", st.v, st.p, header)
			if err != nil {
				t.Fatalf("%s v%d: %v", name, st.v, err)
			}
			if st.base == raw {
				if res.Frame != nil {
					t.Fatalf("%s v%d: framed %d bytes, want the payload unframed", name, st.v, len(res.Frame))
				}
				continue
			}
			if _, base, ok, _, _ := parseStreamMeta(frameMeta(res.Frame)); !ok && st.base != -1 || ok && base != st.base {
				t.Fatalf("%s v%d: frame names base %d (predictor %v), want %d", name, st.v, base, ok, st.base)
			}
			got := decodeOK(t, r, res, st.id)
			want, wantErr := st.p, 0.0
			if st.id == Quantize {
				var frame []byte
				frame, wantErr = oracleQuantize(spec, st.p, header)
				want = oracleUnquantize(frame, len(st.p))
			}
			if !bytes.Equal(got, want) || res.MaxError != wantErr {
				t.Fatalf("%s v%d: decoded bytes or error %g differ from the oracle's (error %g)", name, st.v, res.MaxError, wantErr)
			}
			t.Logf("%-22s v%d %v base %2d: %5d -> %4d bytes", name, st.v, st.id, st.base, len(st.p), len(res.Frame))
		}
	}
}

// TestQuantizeEvictedBaseFailsTyped: frames decoded long after they
// were encoded decode to the oracle's bytes while their bases are
// retained, and fail with ErrNoBase once the ring has evicted them.
func TestQuantizeEvictedBaseFailsTyped(t *testing.T) {
	const nx, ny, nz, header = 8, 8, 4, 24
	p := fieldLike(rand.New(rand.NewSource(20)), header, nx*ny*nz, func(i int) float64 { return math.Cos(float64(i) / 11) })
	spec := Spec{ID: Quantize, NX: nx, NY: ny}
	r := NewRegistry()
	const versions = baseRetention + 8
	frames := make([][]byte, versions+1)
	payloads := make([][]byte, versions+1)
	for v := 1; v <= versions; v++ {
		p = withTail(p, header, func(i int) float64 { return math.Cos(float64(i)/11 + float64(v)/50) })
		res, err := r.Encode(spec, "e", v, p, header)
		if err != nil {
			t.Fatal(err)
		}
		frames[v], payloads[v] = res.Frame, p
	}
	for v := 2; v <= versions; v++ {
		got, _, err := r.Decode(frames[v])
		if base := v - 1; base <= versions-baseRetention {
			if !errors.Is(err, ErrNoBase) {
				t.Fatalf("v%d on evicted base %d: decode = %v, want ErrNoBase", v, base, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		want, _ := oracleQuantize(spec, payloads[v], header)
		if !bytes.Equal(got, oracleUnquantize(want, len(payloads[v]))) {
			t.Fatalf("v%d: decoded bytes differ from the oracle's", v)
		}
	}
}
