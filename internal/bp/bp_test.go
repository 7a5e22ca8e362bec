package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/grid"
	"insitu/internal/sim"
)

func sampleFields(rng *rand.Rand) []*grid.Field {
	b := grid.Box{Lo: [3]int{2, 0, 1}, Hi: [3]int{8, 5, 4}}
	names := []string{"T", "Y_H2", "Y_OH"}
	var out []*grid.Field
	for _, n := range names {
		f := grid.NewField(n, b)
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
		out = append(out, f)
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rank0.bp")
	fields := sampleFields(rand.New(rand.NewSource(2)))
	n, err := WriteFile(path, fields)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != n {
		t.Fatalf("reported %d bytes, file has %d", n, fi.Size())
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fields) {
		t.Fatalf("want %d fields, got %d", len(fields), len(got))
	}
	for i, f := range fields {
		g := got[i]
		if g.Name != f.Name || g.Box != f.Box {
			t.Fatalf("field %d header mismatch", i)
		}
		for j := range f.Data {
			if g.Data[j] != f.Data[j] {
				t.Fatalf("field %s data mismatch at %d", f.Name, j)
			}
		}
	}
}

// TestReadFileCorruptField: a variable whose field payload does not
// decode — here a box of 2^64 points that a wrapping product would
// size at the 0 values it carries — fails ReadFile as a corrupt
// checkpoint, wrapping the field decoder's error.
func TestReadFileCorruptField(t *testing.T) {
	field := binary.LittleEndian.AppendUint32(nil, 1)
	field = append(field, 'T')
	for _, v := range []uint64{0, 0, 0, 1 << 32, 1 << 32, 1, 0} {
		field = binary.LittleEndian.AppendUint64(field, v)
	}
	path := filepath.Join(t.TempDir(), "huge.bp")
	if err := os.WriteFile(path, oneVarFile("T", field), 0o644); err != nil {
		t.Fatal(err)
	}
	fields, err := ReadFile(path)
	if !errors.Is(err, ErrCorruptCheckpoint) || !errors.Is(err, grid.ErrCorruptField) {
		t.Fatalf("ReadFile = %v, %v; want ErrCorruptCheckpoint wrapping grid.ErrCorruptField", fields, err)
	}
}

func TestCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bp")
	if err := os.WriteFile(path, []byte("not a bp file at all........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("garbage must error")
	}
	// Truncated real file.
	good := filepath.Join(dir, "good.bp")
	if _, err := WriteFile(good, sampleFields(rand.New(rand.NewSource(4)))); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated file must error")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.bp")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.bp")
	if _, err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file should load 0 fields, got %d", len(got))
	}
}

// TestIOModelMatchesTableI checks the Lustre model reproduces the
// paper's I/O rows: 98.5 GB at both core counts gives ~6.56 s reads
// and ~3.28 s writes, independent of the file count.
func TestIOModelMatchesTableI(t *testing.T) {
	total := int64(98.5e9)
	for _, nfiles := range []int{4480, 8960} {
		r := LustreReadTime(total, nfiles)
		w := LustreWriteTime(total, nfiles)
		if r < 6300*time.Millisecond || r > 6900*time.Millisecond {
			t.Fatalf("nfiles=%d: read time %v outside Table I's ~6.56 s", nfiles, r)
		}
		if w < 3100*time.Millisecond || w > 3500*time.Millisecond {
			t.Fatalf("nfiles=%d: write time %v outside Table I's ~3.28 s", nfiles, w)
		}
	}
	// I/O time must be (nearly) independent of the writer count — the
	// OSTs are the bottleneck.
	r1 := LustreReadTime(total, 4480)
	r2 := LustreReadTime(total, 8960)
	diff := r2 - r1
	if diff < 0 {
		diff = -diff
	}
	if diff > 100*time.Millisecond {
		t.Fatalf("read time should not depend on file count: %v vs %v", r1, r2)
	}
}

// TestBitFlipCaught verifies the per-variable CRC32: flipping one bit
// inside a payload is caught on both read paths with the typed
// ErrCorruptCheckpoint, while index/footer structure stays intact. A
// truncated file is refused the same way, and either error carries the
// package's "bp:" prefix once.
func TestBitFlipCaught(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rank0.bp")
	fields := sampleFields(rand.New(rand.NewSource(5)))
	if _, err := WriteFile(path, fields); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	// Flip a bit well inside the first payload (past the header).
	flipped[64] ^= 0x01
	for name, damaged := range map[string][]byte{"bit-flipped payload": flipped, "truncated file": data[:len(data)-3]} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("ReadFile on %s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
		if n := strings.Count(err.Error(), "bp:"); n != 1 {
			t.Errorf("ReadFile on %s: %q carries the bp: prefix %d times, want once", name, err, n)
		}
	}
}

// oneVarFile lays one variable's payload out as a file with a correct
// CRC32, whether or not the payload decodes: what WriteFile would
// write for a field that marshals to those bytes.
func oneVarFile(name string, payload []byte) []byte {
	buf := append([]byte(nil), magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	off := len(buf)
	buf = append(buf, payload...)
	footerOff := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(footerOff-off))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(footerOff))
	return append(buf, magic[:]...)
}

// TestReadVersion1Refused: a version-1 file (16-byte index entries, no
// CRC) is refused as a corrupt checkpoint, so Resume falls back past it
// rather than trusting bytes nothing checks.
func TestReadVersion1Refused(t *testing.T) {
	f := sampleFields(rand.New(rand.NewSource(6)))[0]
	buf := oneVarFile(f.Name, f.Marshal())
	binary.LittleEndian.PutUint32(buf[4:], 1)
	entry := len(buf) - 12 - 20
	buf = append(buf[:entry+16], buf[entry+20:]...) // drop the CRC32

	path := filepath.Join(t.TempDir(), "v1.bp")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("ReadFile = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestCheckpointFromLiveFieldsMatchesCopies: a rank's checkpoint
// written over its owned box straight from the live ghosted fields, as
// a pipeline writes it, is byte for byte the file written from
// CheckpointFields' Extract(owned) copies — the form checkpoints took
// before, kept here as the oracle.
func TestCheckpointFromLiveFieldsMatchesCopies(t *testing.T) {
	s, err := sim.New(sim.DefaultConfig(grid.NewBox(16, 12, 8), 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = sim.RunAll(s, func(rk *sim.Rank) error {
		rk.RunSteps(3)
		live := make([]*grid.Field, len(sim.VarNames))
		for i, name := range sim.VarNames {
			live[i] = rk.GhostedField(name)
		}
		id := rk.Comm().ID()
		got := filepath.Join(dir, fmt.Sprintf("live-%d.bp", id))
		want := filepath.Join(dir, fmt.Sprintf("copies-%d.bp", id))
		if _, err := WriteFile(got, live, rk.OwnedBox()); err != nil {
			return err
		}
		if _, err := WriteFile(want, rk.CheckpointFields()); err != nil {
			return err
		}
		a, errA := os.ReadFile(got)
		b, errB := os.ReadFile(want)
		if err := errors.Join(errA, errB); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("rank %d: the checkpoint from live fields (%d B) differs from the one from copies (%d B)", id, len(a), len(b))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
