package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// rawField hand-builds a field payload in Marshal's layout from raw
// header words: a box (Lo then Hi) and a point count that need not
// agree, followed by nvals zero values.
func rawField(name string, lo, hi [3]uint64, count uint64, nvals int) []byte {
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(name)))
	p = append(p, name...)
	for _, v := range append(lo[:], hi[:]...) {
		p = binary.LittleEndian.AppendUint64(p, v)
	}
	p = binary.LittleEndian.AppendUint64(p, count)
	return append(p, make([]byte, 8*nvals)...)
}

// overflowingFields are payloads whose box claims more points than
// int holds, so Box.Size's product wraps to the count they carry.
var overflowingFields = map[string][]byte{
	// [0,2^32)x[0,2^32)x[0,1): 2^64 points wrap to 0, count 0.
	"2^64 points, no values": rawField("T", [3]uint64{}, [3]uint64{1 << 32, 1 << 32, 1}, 0, 0),
	// [0,3)x[0,11)x[0,1117984489315730401): 2^65+1 points wrap to 1.
	"2^65+1 points, one value": rawField("T", [3]uint64{}, [3]uint64{3, 11, 1117984489315730401}, 1, 1),
}

func TestUnmarshalFieldRejectsOverflowingBox(t *testing.T) {
	for name, p := range overflowingFields {
		f, err := UnmarshalField(p)
		if !errors.Is(err, ErrCorruptField) {
			t.Errorf("%s (%d bytes): got field %v, err %v; want ErrCorruptField", name, len(p), f, err)
		}
	}
}

// FuzzUnmarshalField asserts the field decoder's contract on arbitrary
// bytes: UnmarshalField returns an error wrapping ErrCorruptField, or a
// field holding exactly its box's points that marshals back to the
// bytes it was read from. UnmarshalFieldInto, decoding into a dirty
// destination with another name and size, agrees with it: the same
// field, or an error wrapping ErrCorruptField.
func FuzzUnmarshalField(f *testing.F) {
	sample := NewField("temperature", Box{Lo: [3]int{2, 3, 4}, Hi: [3]int{7, 6, 6}})
	for i := range sample.Data {
		sample.Data[i] = float64(i) / 3
	}
	f.Add(sample.Marshal())
	f.Add((&Field{Name: "empty"}).Marshal())
	f.Add(sample.Marshal()[:40])
	for _, p := range overflowingFields {
		f.Add(p)
	}
	dirty := NewField("dirty", NewBox(3, 2, 2))
	for i := range dirty.Data {
		dirty.Data[i] = -float64(i)
	}
	dirtyBytes := dirty.Marshal()
	f.Fuzz(func(t *testing.T, p []byte) {
		fl, err := UnmarshalField(p)
		var reused Field
		if err := UnmarshalFieldInto(dirtyBytes, &reused); err != nil {
			t.Fatal(err)
		}
		intoErr := UnmarshalFieldInto(p, &reused)
		if err != nil {
			if !errors.Is(err, ErrCorruptField) {
				t.Fatalf("untyped error: %v", err)
			}
			if !errors.Is(intoErr, ErrCorruptField) {
				t.Fatalf("fresh decode failed with %v, decode into a used field with %v", err, intoErr)
			}
			return
		}
		if len(fl.Data) != fl.Box.Size() {
			t.Fatalf("%d values for box %v of %d points", len(fl.Data), fl.Box, fl.Box.Size())
		}
		if !bytes.Equal(fl.Marshal(), p) {
			t.Fatalf("decoded field does not marshal back to its input")
		}
		if intoErr != nil {
			t.Fatalf("fresh decode succeeded, decode into a used field failed: %v", intoErr)
		}
		if !bytes.Equal(reused.Marshal(), p) {
			t.Fatalf("decode into a used field gave %q %v (%d values), the fresh decode %q %v (%d values)",
				reused.Name, reused.Box, len(reused.Data), fl.Name, fl.Box, len(fl.Data))
		}
	})
}
