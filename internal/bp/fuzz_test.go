package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/grid"
)

// FuzzReadFile asserts the checkpoint reader's contract on arbitrary
// bytes: ReadFile returns the fields or an error wrapping
// ErrCorruptCheckpoint — it never panics and never sizes an allocation
// from a count the file merely claims. Resume's fallback to an older
// checkpoint depends on exactly that.
func FuzzReadFile(f *testing.F) {
	fields := sampleFields(rand.New(rand.NewSource(11)))

	// Seed with a valid file, one written by hand...
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.bp")
	if _, err := WriteFile(path, fields); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(oneVarFile(fields[0].Name, fields[0].Marshal()))

	// ...and with the shapes that used to get past readIndex: a footer
	// offset inside the trailer,
	inTrailer := make([]byte, 40)
	copy(inTrailer, magic[:])
	binary.LittleEndian.PutUint32(inTrailer[4:], version)
	binary.LittleEndian.PutUint64(inTrailer[28:], 36)
	copy(inTrailer[36:], magic[:])
	f.Add(inTrailer)
	// an entry whose offset and length wrap past the file-size check,
	wrapped := append([]byte(nil), v2...)
	entry := binary.LittleEndian.Uint64(wrapped[len(wrapped)-12:]) + 4 + uint64(len(fields[0].Name))
	binary.LittleEndian.PutUint64(wrapped[entry:], ^uint64(0)-7)
	binary.LittleEndian.PutUint64(wrapped[entry+8:], 16)
	f.Add(wrapped)
	// a variable count the footer cannot hold,
	manyVars := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint32(manyVars[8:], ^uint32(0))
	f.Add(manyVars)
	// and a field whose point count overflows its byte length.
	hugeField := binary.LittleEndian.AppendUint32(nil, 1)
	hugeField = append(hugeField, 'T')
	for _, v := range []uint64{0, 0, 0, 1 << 61, 1, 1, 1 << 61} {
		hugeField = binary.LittleEndian.AppendUint64(hugeField, v)
	}
	f.Add(oneVarFile("T", hugeField))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		for _, fl := range got {
			if fl == nil || len(fl.Data) != fl.Box.Size() {
				t.Fatalf("read succeeded with a malformed field: %+v", fl)
			}
		}
	})
}

// FuzzWriteFileRegion: what WriteFile writes over a region reads back
// as Extract(region) of each field, bit for bit, and every truncation
// of that file is a typed error, never a panic. The seed draws a box,
// a region inside it and up to four fields on the box.
func FuzzWriteFileRegion(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed), uint16(7*seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, seed int64, nfields uint8, cut uint16) {
		rng := rand.New(rand.NewSource(seed))
		var box, region grid.Box
		for d := 0; d < 3; d++ {
			box.Lo[d] = rng.Intn(7) - 3
			box.Hi[d] = box.Lo[d] + 1 + rng.Intn(6)
			region.Lo[d] = box.Lo[d] + rng.Intn(box.Hi[d]-box.Lo[d])
			region.Hi[d] = region.Lo[d] + 1 + rng.Intn(box.Hi[d]-region.Lo[d])
		}
		fields := make([]*grid.Field, 1+int(nfields)%4)
		for i := range fields {
			fields[i] = grid.NewField(fmt.Sprintf("v%d", i), box)
			for k := range fields[i].Data {
				fields[i].Data[k] = math.Float64frombits(rng.Uint64())
			}
		}
		path := filepath.Join(dir, "region.bp")
		n, err := WriteFile(path, fields, region)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("reading back box %v region %v: %v", box, region, err)
		}
		if len(got) != len(fields) {
			t.Fatalf("read %d fields, wrote %d", len(got), len(fields))
		}
		for i, fl := range fields {
			if want := fl.Extract(region); !bytes.Equal(got[i].Marshal(), want.Marshal()) {
				t.Fatalf("field %s: read %v, want Extract(%v) of box %v", fl.Name, got[i].Box, region, box)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil || int64(len(data)) != n {
			t.Fatalf("file holds %d bytes (%v), WriteFile reported %d", len(data), err, n)
		}
		if err := os.WriteFile(path, data[:int(cut)%len(data)], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("a file cut to %d of %d bytes read with err = %v, want ErrCorruptCheckpoint", int(cut)%len(data), len(data), err)
		}
	})
}
