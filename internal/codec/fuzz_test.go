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
// raw size.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	r := NewRegistry()
	payload := fieldLike(rng, 20, 64, func(i int) float64 { return math.Sqrt(float64(i)) })

	// Seed with one valid frame per codec...
	if _, err := r.Encode(Spec{ID: Delta}, "fz", 1, payload, 0); err != nil {
		f.Fatal(err)
	}
	dl, err := r.Encode(Spec{ID: Delta}, "fz", 2, payload, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), dl.Frame...))
	qz, err := r.Encode(Spec{ID: Quantize}, "fz", 1, payload, 20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), qz.Frame...))
	// ...a residual frame over a 4x4x4 shape, and tampered copies of it:
	// a block width past the residual bound, a stream ending mid-block,
	// trailing bytes, a shape that does not divide the count...
	shaped, err := r.Encode(Spec{ID: Quantize, NX: 4, NY: 4}, "fz", 1, payload, 20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), shaped.Frame...))
	stream := headerSize + quantMetaLen + 20
	wide := append([]byte(nil), shaped.Frame...)
	wide[stream] |= predictedFlag - 1
	f.Add(wide)
	f.Add(append([]byte(nil), shaped.Frame[:stream+3]...))
	f.Add(append(append([]byte(nil), shaped.Frame...), 0, 0))
	badShape := append([]byte(nil), shaped.Frame...)
	binary.LittleEndian.PutUint32(badShape[headerSize+22:], 5)
	f.Add(badShape)

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
		raw, _, err := reg(t).Decode(frame)
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

// reg rebuilds the registry state the seed frames reference, so
// fuzzing can reach the base-resident delta decode path too.
func reg(t *testing.T) *Registry {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	r := NewRegistry()
	payload := fieldLike(rng, 20, 64, func(i int) float64 { return math.Sqrt(float64(i)) })
	if _, err := r.Encode(Spec{ID: Delta}, "fz", 1, payload, 0); err != nil {
		t.Fatal(err)
	}
	return r
}
