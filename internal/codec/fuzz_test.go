package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// FuzzDecodeFrame asserts the frame decoder's contract on arbitrary
// bytes: it returns one of the typed codec errors or succeeds — it
// never panics, and a successful decode returns exactly the declared
// raw size. The registry holds the bases the seed frames name, so
// mutants reach the XOR, Rice and temporal residual walks, not only
// ErrNoBase.
func FuzzDecodeFrame(f *testing.F) {
	r, v1, v2 := reg(f)

	// Seed with one valid frame per codec and predictor...
	dl, err := r.Encode(Spec{ID: Delta}, "fz", 2, v1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), dl.Frame...))
	qz, err := r.Encode(Spec{ID: Quantize}, "fq", 1, v1, 20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), qz.Frame...))
	shaped, err := r.Encode(Spec{ID: Quantize, NX: 4, NY: 4}, "fq", 1, v1, 20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), shaped.Frame...))
	tm, err := r.Encode(Spec{ID: Quantize, NX: 4, NY: 4}, "ft", 2, v2, 20)
	if err != nil {
		f.Fatal(err)
	}
	temporal := append([]byte(nil), tm.Frame...)
	if _, base, ok, _, _ := parseStreamMeta(frameMeta(temporal)); !ok || base != 1 {
		f.Fatalf("seed frame names base %d (predictor %v), want ft@1", base, ok)
	}
	if _, _, err := r.Decode(temporal); err != nil {
		f.Fatalf("temporal seed frame: %v", err)
	}
	f.Add(temporal)
	// ...and tampered copies of the temporal frame: a block parameter
	// past the bits, a stream ending mid-block, trailing bytes, a shape
	// that does not divide the count, a base that is not resident, no
	// predictor.
	qm := headerSize + streamMetaLen("ft")
	stream := qm + quantMetaLen + 20
	wide := append([]byte(nil), temporal...)
	wide[stream] |= residualFlag - 1
	f.Add(wide)
	f.Add(append([]byte(nil), temporal[:stream+3]...))
	f.Add(append(append([]byte(nil), temporal...), 0, 0))
	badShape := append([]byte(nil), temporal...)
	binary.LittleEndian.PutUint32(badShape[qm+21:], 5)
	f.Add(badShape)
	otherBase := append([]byte(nil), temporal...)
	otherBase[headerSize+1] = 7
	f.Add(otherBase)
	spatial := append([]byte(nil), temporal...)
	spatial[headerSize] = predictNone
	f.Add(spatial)

	// ...and with the malformed shapes the typed errors name.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1})
	f.Add([]byte{0, 0, frameVersion, 1, 0, 0, 0, 0, 0, 0, 0, 0})            // bad magic
	f.Add([]byte{magic0, magic1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})             // bad version
	f.Add([]byte{magic0, magic1, frameVersion, 77, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown codec
	trunc := append([]byte(nil), qz.Frame[:len(qz.Frame)-5]...)
	f.Add(trunc)
	wrongRaw := append([]byte(nil), dl.Frame...)
	binary.LittleEndian.PutUint32(wrongRaw[4:8], 1<<30)
	f.Add(wrongRaw)
	overMeta := append([]byte(nil), qz.Frame...)
	binary.LittleEndian.PutUint32(overMeta[8:12], uint32(len(overMeta)))
	f.Add(overMeta)

	typed := []error{
		ErrBadFrame, ErrUnknownCodec, ErrTruncated,
		ErrSizeMismatch, ErrBadMeta, ErrNoBase,
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		r, _, _ := reg(t)
		raw, _, err := r.Decode(frame)
		if err != nil {
			for _, sentinel := range typed {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		_, rawSize, _, _, ierr := splitFrame(frame)
		if ierr != nil {
			t.Fatalf("decode succeeded but splitFrame failed: %v", ierr)
		}
		if len(raw) != rawSize {
			t.Fatalf("decode returned %d bytes, header declares %d", len(raw), rawSize)
		}
	})
}

// reg rebuilds the registry state the seed frames reference — the
// delta stream's first version and the quantize stream's levels base —
// so fuzzing reaches the base-resident decode paths too. It returns the
// stream's two versions: the same header bytes, a moved tail.
func reg(tb testing.TB) (r *Registry, v1, v2 []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	r = NewRegistry()
	v1 = fieldLike(rng, 20, 64, func(i int) float64 { return math.Sqrt(float64(i)) })
	v2 = withTail(v1, 20, func(i int) float64 { return math.Sqrt(float64(i) + 0.05) })
	if _, err := r.Encode(Spec{ID: Delta}, "fz", 1, v1, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Encode(Spec{ID: Quantize, NX: 4, NY: 4}, "ft", 1, v1, 20); err != nil {
		tb.Fatal(err)
	}
	return r, v1, v2
}
