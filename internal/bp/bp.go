// Package bp implements a BP-lite checkpoint format: single-file-per-
// process binary output like the ADIOS/BP configuration the paper's
// Table I measures ("data read/write is done on a single-file-per-
// process basis, which achieves near peak I/O bandwidths"). Files hold
// a magic header, a variable count, and the concatenated field
// payloads, with a variable index (offset, length, CRC32) in the footer.
//
// The package also carries the Lustre I/O model used to regenerate
// Table I's read/write rows: aggregate bandwidth is capped by the
// filesystem's object storage targets, so the modeled time depends on
// total volume, not on the number of writers.
package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
	"insitu/internal/recovery"
)

// magic identifies BP-lite files.
var magic = [4]byte{'B', 'P', 'L', 'T'}

// version is the one format version: each variable's index entry
// carries a CRC32 of its payload, verified on every read. Version 1
// (no CRC) is refused, so no checkpoint is read unchecked.
const version = 2

// entrySize is an index entry's fixed part after its name: offset,
// length and CRC32.
const entrySize = 20

// ErrCorruptCheckpoint is returned when a variable's payload fails its
// recorded CRC32 — the on-disk analogue of the transport's in-flight
// CRC framing. Structural damage (torn index, bad magic, unknown
// version, a payload that does not decode) also wraps it, so callers
// can treat any bit-flipped checkpoint uniformly. ReadFile's error
// names the package and the file before it.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// WriteFile writes the fields to path and returns the byte count: each
// field over region, when one is given (at most one, inside every
// field's box), and over its own box otherwise. The bytes are those of
// writing Extract(region) copies, but each field marshals straight from
// its storage — a rank checkpoints its owned block from the live
// ghosted fields — into its final position in one pool-recycled
// buffer sized exactly up front. The file lands via atomic
// temp-file+rename: a crash mid-checkpoint leaves the previous file (or
// nothing), never a truncated one.
func WriteFile(path string, fields []*grid.Field, region ...grid.Box) (int64, error) {
	if len(region) > 1 {
		return 0, fmt.Errorf("bp: write %s: %d regions, want at most one", path, len(region))
	}
	over := func(f *grid.Field) grid.Box {
		if len(region) == 1 {
			return region[0]
		}
		return f.Box
	}
	total := 12 // magic + version + nvars
	for _, f := range fields {
		total += f.DownsampleMarshalSize(over(f), 1) // payload
		total += 4 + len(f.Name) + entrySize         // index entry
	}
	total += 8 + 4 // footer offset + trailing magic
	buf := bufpool.Get(total)[:0]
	defer bufpool.Put(buf)
	le := binary.LittleEndian
	buf = append(buf, magic[:]...)
	buf = le.AppendUint32(buf, version)
	buf = le.AppendUint32(buf, uint32(len(fields)))
	for _, f := range fields {
		buf = f.AppendDownsampleMarshal(buf, over(f), 1)
	}
	// Footer: per-variable (nameLen, name, offset, length, crc32) over
	// the payloads just written, then the footer offset and magic again
	// for validity checking.
	footerOff, off := len(buf), 12
	for _, f := range fields {
		n := f.DownsampleMarshalSize(over(f), 1)
		buf = append(le.AppendUint32(buf, uint32(len(f.Name))), f.Name...)
		buf = le.AppendUint64(le.AppendUint64(buf, uint64(off)), uint64(n))
		buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf[off:off+n]))
		off += n
	}
	buf = le.AppendUint64(buf, uint64(footerOff))
	buf = append(buf, magic[:]...)
	if err := recovery.WriteFileAtomic(path, buf, 0o644); err != nil {
		return 0, fmt.Errorf("bp: write %s: %w", path, err)
	}
	return int64(len(buf)), nil
}

// idxEntry locates one variable's payload; sum is its CRC32.
type idxEntry struct {
	name        string
	off, length uint64
	sum         uint32
}

// readIndex parses the footer and returns the payload locations in
// file order.
func readIndex(data []byte) ([]idxEntry, error) {
	if len(data) < 12+12 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("%w: not a BP-lite file", ErrCorruptCheckpoint)
	}
	if !bytes.Equal(data[len(data)-4:], magic[:]) {
		return nil, fmt.Errorf("%w: truncated file (footer magic missing)", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptCheckpoint, v)
	}
	nvars := int(binary.LittleEndian.Uint32(data[8:12]))
	footerOff := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	if footerOff < 12 || footerOff > uint64(len(data)-12) {
		return nil, fmt.Errorf("%w: bad footer offset", ErrCorruptCheckpoint)
	}
	p := data[footerOff : len(data)-12]
	// An entry is at least its name length and its fixed part, so the
	// footer bounds the count: nvars never sizes the index on its own.
	if nvars > len(p)/(4+entrySize) {
		return nil, fmt.Errorf("%w: %d variables cannot fit a %d-byte index", ErrCorruptCheckpoint, nvars, len(p))
	}
	idx := make([]idxEntry, 0, nvars)
	for vi := 0; vi < nvars; vi++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: truncated index entry %d", ErrCorruptCheckpoint, vi)
		}
		nameLen := int(binary.LittleEndian.Uint32(p[:4]))
		p = p[4:]
		if len(p) < nameLen+entrySize {
			return nil, fmt.Errorf("%w: truncated index entry %d", ErrCorruptCheckpoint, vi)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		e := idxEntry{
			name:   name,
			off:    binary.LittleEndian.Uint64(p[:8]),
			length: binary.LittleEndian.Uint64(p[8:16]),
			sum:    binary.LittleEndian.Uint32(p[16:20]),
		}
		p = p[entrySize:]
		if e.off > uint64(len(data)) || e.length > uint64(len(data))-e.off {
			return nil, fmt.Errorf("%w: variable %q extends past end of file", ErrCorruptCheckpoint, name)
		}
		idx = append(idx, e)
	}
	return idx, nil
}

// ReadFile loads every field from a BP-lite file, verifying each
// variable's CRC32. A payload that fails it or does not decode is a
// corrupt checkpoint (the error wraps ErrCorruptCheckpoint, and
// grid.ErrCorruptField for the latter).
func ReadFile(path string) ([]*grid.Field, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bp: %w", err) // an *fs.PathError, which names the file
	}
	idx, err := readIndex(data)
	if err != nil {
		return nil, fmt.Errorf("bp: %q: %w", path, err)
	}
	out := make([]*grid.Field, 0, len(idx))
	for _, e := range idx {
		b := data[e.off : e.off+e.length]
		if crc32.ChecksumIEEE(b) != e.sum {
			return nil, fmt.Errorf("bp: %q: %w: variable %q CRC mismatch", path, ErrCorruptCheckpoint, e.name)
		}
		f, err := grid.UnmarshalField(b)
		if err != nil {
			return nil, fmt.Errorf("bp: %q variable %q: %w: %w", path, e.name, ErrCorruptCheckpoint, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// The Lustre model of the paper's Table I: a parallel filesystem whose
// aggregate bandwidth is capped by its object storage targets (OSTs).
// 98.5 GB read in 6.56 s (~15 GB/s) and written in 3.28 s (~30 GB/s),
// independent of core count because the OSTs are the bottleneck.
const (
	lustreReadBandwidth  = 15.0e9 // aggregate bytes/s
	lustreWriteBandwidth = 30.0e9 // aggregate bytes/s
	lustrePerFileLatency = 2 * time.Millisecond
	// lustreParallelFiles files are opened concurrently; the per-file
	// latency amortizes across this many simultaneous opens.
	lustreParallelFiles = 512
)

// LustreReadTime returns the modeled wall time to read totalBytes
// spread over nfiles files from the Table I filesystem.
func LustreReadTime(totalBytes int64, nfiles int) time.Duration {
	return lustreTime(totalBytes, nfiles, lustreReadBandwidth)
}

// LustreWriteTime returns the modeled wall time to write totalBytes
// spread over nfiles files to the Table I filesystem.
func LustreWriteTime(totalBytes int64, nfiles int) time.Duration {
	return lustreTime(totalBytes, nfiles, lustreWriteBandwidth)
}

func lustreTime(totalBytes int64, nfiles int, bw float64) time.Duration {
	d := time.Duration(float64(totalBytes) / bw * float64(time.Second))
	waves := (nfiles + lustreParallelFiles - 1) / lustreParallelFiles
	return d + time.Duration(waves)*lustrePerFileLatency
}
