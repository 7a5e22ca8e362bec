// Package codec is the transfer-path encoder/decoder layer applied at
// the DART framing boundary. A producer encodes an intermediate
// payload into a self-describing frame before registering it for
// remote pull; the consumer-side Get decodes transparently after CRC32
// verification, so corruption is always caught on the encoded bytes
// before any decoder runs. Because netsim derives modeled transfer
// latency from the registered (encoded) length, every byte a codec
// removes is a proportional modeled-latency win — the bandwidth
// economy the paper's in-transit placement is built around.
//
// Three codecs ship:
//
//   - Identity: no frame at all; the raw payload is registered
//     unchanged, byte-for-byte identical to the pre-codec transport.
//   - Delta: XOR against the stream's previous version (resident in
//     the registry's base store), byte-plane shuffled and zero-run
//     length encoded. Exact reconstruction.
//   - Quantize: bounded-error quantization of the payload's float64
//     tail under a per-field max-error knob; each level is predicted
//     from the previous version's reconstruction, re-quantized onto
//     this payload's grid, and from its 3-D Lorenzo neighbours, and the
//     residuals travel Rice-coded in blocks; bytes before the tail
//     travel verbatim.
//
// A frame is shipped only when it is smaller than the raw payload;
// otherwise (no usable base, non-finite values, incompressible bytes)
// the encode reports identity and the raw payload travels unchanged.
//
// Every encode retains a base for the stream's next version: what the
// consumer holds once it has decoded this one. That is the payload
// itself for delta and identity, and the levels plus their grid for a
// quantize frame, never the producer's raw floats, so a consumer in
// another address space could retain the same base from what it
// decoded. A frame's metadata names its base by version and stream
// key.
//
// All scratch, frame, decode and base buffers come from
// internal/bufpool so the steady-state encode/decode path allocates
// nothing.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"insitu/internal/bufpool"
)

// ID names a codec in the frame header.
type ID uint8

const (
	// Identity ships raw bytes with no frame.
	Identity ID = iota
	// Delta encodes against the stream's previous version.
	Delta
	// Quantize packs the float64 tail's levels under an error bound.
	Quantize

	// NumIDs is the number of codec IDs, for per-codec instrument
	// arrays.
	NumIDs = 3
)

// String implements fmt.Stringer.
func (id ID) String() string {
	switch id {
	case Identity:
		return "identity"
	case Delta:
		return "delta"
	case Quantize:
		return "quantize"
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// Spec selects a codec and its tuning for one analysis route.
type Spec struct {
	ID ID
	// MaxError is Quantize's absolute reconstruction-error bound per
	// float. Zero selects DefaultRelError times the payload's value
	// range, recomputed per payload.
	MaxError float64
	// NX and NY are the x and y extents of the float tail, which runs x
	// fastest, then y, then z: Quantize predicts each value from its
	// neighbours along all three. The caller sets them per payload;
	// both zero means unknown, and the tail is then one row.
	NX, NY int
}

const (
	// DefaultRelError is Quantize's default error bound as a fraction
	// of the payload's value range (~13 bits per float).
	DefaultRelError = 1e-4
	// baseRetention bounds how many versions per key the base store
	// retains — enough to cover every task the transit tier can hold in
	// flight, small enough not to hoard buffers.
	baseRetention = 32
)

// Typed frame errors. The frame decoder returns these (wrapped) and
// never panics, whatever bytes arrive.
var (
	// ErrBadFrame is returned for a frame too short for its header or
	// with the wrong magic or version.
	ErrBadFrame = errors.New("codec: malformed frame")
	// ErrUnknownCodec is returned for a codec ID no decoder claims.
	ErrUnknownCodec = errors.New("codec: unknown codec id")
	// ErrTruncated is returned when the frame body ends before the
	// encoding it declares.
	ErrTruncated = errors.New("codec: truncated frame")
	// ErrSizeMismatch is returned when decoding produces a different
	// byte count than the header's raw size.
	ErrSizeMismatch = errors.New("codec: raw-size mismatch")
	// ErrBadMeta is returned when a codec's metadata block is
	// internally inconsistent.
	ErrBadMeta = errors.New("codec: malformed codec metadata")
	// ErrNoBase is returned when the base version a frame names is not
	// resident in the registry, or not in the form the frame needs.
	ErrNoBase = errors.New("codec: base unavailable")
	// ErrBadInput is returned by Encode for an impossible float-tail
	// offset or payload shape.
	ErrBadInput = errors.New("codec: bad encode input")
)

// Frame layout (little-endian):
//
//	[0:2]   magic 0xDC 0xF0
//	[2]     frame version (frameVersion)
//	[3]     codec ID
//	[4:8]   raw (decoded) size, uint32
//	[8:12]  codec metadata length, uint32
//	[12:..] codec metadata, then the encoded body
//
// The codec metadata starts with the stream fields, the same for every
// codec:
//
//	[0]     predictor: 0 none, 1 the base named below
//	[1:9]   base version, int64 (-1 with no predictor)
//	[9:11]  key length, uint16
//	[11:..] key bytes
//
// and the codec's own fields follow the key.
const (
	magic0       = 0xDC
	magic1       = 0xF0
	frameVersion = 3
	headerSize   = 12

	predictNone = 0
	predictBase = 1
)

// Key builds the base-store key for one producer stream: an analysis
// route on one rank. Precompute it once per route — building it per
// step would allocate on the hot path.
func Key(name string, rank int) string {
	return name + "/" + strconv.Itoa(rank)
}

// Result is one successful encode.
type Result struct {
	// Frame is the encoded frame, drawn from bufpool; nil means the
	// codec chose identity and the caller registers the raw payload
	// unchanged. Ownership of a non-nil Frame passes to the caller.
	Frame []byte
	// MaxError bounds the reconstruction error this encoding
	// introduced (0 for Delta and Identity).
	MaxError float64
}

// Registry holds the codec state shared between producers and
// consumers: the base store frames are predicted from.
// One registry is shared by the DataSpaces service and the DART fabric
// of a pipeline.
type Registry struct {
	bases store
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{bases: store{m: make(map[string][]storeEntry)}}
}

// Encode encodes raw under spec for the producer stream key at the
// given version. floatOff is the byte offset of the payload's float64
// tail (used by Quantize; pass 0 when unknown — Delta ignores it). The
// raw slice is only read; the caller keeps ownership. A nil Frame
// means the raw payload ships unchanged: the spec is identity, or no
// frame would be smaller than raw.
func (r *Registry) Encode(spec Spec, key string, version int, raw []byte, floatOff int) (Result, error) {
	switch spec.ID {
	case Identity:
		return Result{}, nil
	case Delta:
		return r.encodeDelta(key, version, raw), nil
	case Quantize:
		return r.encodeQuantize(spec, key, version, raw, floatOff)
	}
	return Result{}, fmt.Errorf("%w: %d", ErrUnknownCodec, spec.ID)
}

// Decode reconstructs the raw payload from a frame. The returned
// buffer comes from bufpool and is owned by the caller; the frame is
// only read. Malformed frames return typed errors, never panic.
func (r *Registry) Decode(frame []byte) ([]byte, ID, error) {
	id, rawSize, meta, body, err := splitFrame(frame)
	if err != nil {
		return nil, 0, err
	}
	var raw []byte
	switch id {
	case Delta:
		raw, err = r.decodeDelta(rawSize, meta, body)
	case Quantize:
		raw, err = r.decodeQuantize(rawSize, meta, body)
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownCodec, id)
	}
	if err != nil {
		return nil, id, err
	}
	return raw, id, nil
}

// SeedBase retains raw as the base payload for (key, version) — the
// resume path's re-anchoring of the delta codec: after a restart the
// in-memory base store is empty, so the pipeline recomputes the last
// committed step's payload from restored simulation state and seeds it
// here, letting the first live step delta-encode against it instead of
// shipping raw. The raw slice is copied; the caller keeps ownership.
func (r *Registry) SeedBase(key string, version int, raw []byte) {
	r.bases.putExact(key, version, raw)
}

// ReleaseBases hands every retained base payload back to bufpool and
// empties the base store. Call it once no frame will be encoded or
// decoded against a base again: a scheduler's one run has drained.
func (r *Registry) ReleaseBases() {
	r.bases.mu.Lock()
	defer r.bases.mu.Unlock()
	for _, entries := range r.bases.m {
		for _, e := range entries {
			e.recycle()
		}
	}
	clear(r.bases.m)
}

// Bases returns how many base payloads the store retains.
func (r *Registry) Bases() int {
	r.bases.mu.Lock()
	defer r.bases.mu.Unlock()
	n := 0
	for _, entries := range r.bases.m {
		n += len(entries)
	}
	return n
}

// splitFrame validates the header and returns (id, rawSize, meta,
// body).
func splitFrame(frame []byte) (ID, int, []byte, []byte, error) {
	if len(frame) < headerSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(frame))
	}
	if frame[0] != magic0 || frame[1] != magic1 {
		return 0, 0, nil, nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if frame[2] != frameVersion {
		return 0, 0, nil, nil, fmt.Errorf("%w: version %d", ErrBadFrame, frame[2])
	}
	id := ID(frame[3])
	rawSize := int(binary.LittleEndian.Uint32(frame[4:8]))
	metaLen := int(binary.LittleEndian.Uint32(frame[8:12]))
	if metaLen < 0 || metaLen > len(frame)-headerSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: meta %d bytes beyond frame", ErrTruncated, metaLen)
	}
	meta := frame[headerSize : headerSize+metaLen]
	body := frame[headerSize+metaLen:]
	return id, rawSize, meta, body, nil
}

// newFrame draws a frame buffer sized for metaLen+bodyCap and writes
// the header; the body cursor starts at headerSize+metaLen.
func newFrame(id ID, rawSize, metaLen, bodyCap int) []byte {
	f := bufpool.Get(headerSize + metaLen + bodyCap)
	f[0], f[1], f[2], f[3] = magic0, magic1, frameVersion, byte(id)
	binary.LittleEndian.PutUint32(f[4:8], uint32(rawSize))
	binary.LittleEndian.PutUint32(f[8:12], uint32(metaLen))
	return f
}

// checkTail validates a float-tail offset against a payload.
func checkTail(raw []byte, floatOff int) (count int, err error) {
	if floatOff < 0 || floatOff > len(raw) || (len(raw)-floatOff)%8 != 0 {
		return 0, fmt.Errorf("%w: float tail at %d of %d bytes", ErrBadInput, floatOff, len(raw))
	}
	return (len(raw) - floatOff) / 8, nil
}

// streamMetaLen is the length of the stream fields for key.
func streamMetaLen(key string) int { return 1 + 8 + 2 + len(key) }

// putStreamMeta writes the stream fields: no predictor when
// baseVersion is negative, otherwise that base.
func putStreamMeta(meta []byte, baseVersion int, key string) {
	meta[0] = predictNone
	if baseVersion >= 0 {
		meta[0] = predictBase
	}
	binary.LittleEndian.PutUint64(meta[1:9], uint64(int64(baseVersion)))
	binary.LittleEndian.PutUint16(meta[9:11], uint16(len(key)))
	copy(meta[11:], key)
}

// parseStreamMeta reads the stream fields and returns the base the
// frame names (ok false with no predictor) and the codec's own fields
// after the key.
func parseStreamMeta(meta []byte) (key []byte, baseVersion int, ok bool, rest []byte, err error) {
	if len(meta) < 11 {
		return nil, 0, false, nil, fmt.Errorf("%w: stream meta %d bytes", ErrBadMeta, len(meta))
	}
	keyLen := int(binary.LittleEndian.Uint16(meta[9:11]))
	if len(meta) < 11+keyLen {
		return nil, 0, false, nil, fmt.Errorf("%w: key %d bytes in %d-byte meta", ErrBadMeta, keyLen, len(meta))
	}
	v := int64(binary.LittleEndian.Uint64(meta[1:9]))
	switch meta[0] {
	case predictNone:
		if v != -1 {
			return nil, 0, false, nil, fmt.Errorf("%w: base version %d with no predictor", ErrBadMeta, v)
		}
	case predictBase:
		if v < 0 || v > math.MaxInt32 {
			return nil, 0, false, nil, fmt.Errorf("%w: base version %d", ErrBadMeta, v)
		}
		ok = true
	default:
		return nil, 0, false, nil, fmt.Errorf("%w: predictor %d", ErrBadMeta, meta[0])
	}
	return meta[11 : 11+keyLen], int(v), ok, meta[11+keyLen:], nil
}

// storeEntry is one retained base: what the consumer of that version
// reconstructed. An exact base is the payload's bytes; a levels base is
// a quantize frame's levels (4 bytes each, little-endian), the bytes
// before its float tail and its grid.
type storeEntry struct {
	version  int
	buf      []byte
	levels   bool
	head     []byte
	lo, step float64
}

// recycle hands the entry's buffers back to bufpool.
func (e *storeEntry) recycle() {
	bufpool.Put(e.buf)
	if e.levels {
		bufpool.Put(e.head)
	}
}

// store is a keyed ring of retained bases (bufpool-backed). Readers
// borrow entries under the lock via with and newestBelow, so eviction
// can safely recycle buffers.
type store struct {
	mu sync.Mutex
	m  map[string][]storeEntry
}

// putExact retains a copy of raw as the exact base (key, version).
func (s *store) putExact(key string, version int, raw []byte) {
	cp := bufpool.Get(len(raw))
	copy(cp, raw)
	s.put(key, storeEntry{version: version, buf: cp})
}

// putLevels retains copies of a quantize frame's levels, the bytes
// before its tail and its grid as the levels base (key, version).
func (s *store) putLevels(key string, version int, lv []uint32, head []byte, lo, step float64) {
	buf := bufpool.Get(4 * len(lv))
	for i, q := range lv {
		binary.LittleEndian.PutUint32(buf[4*i:], q)
	}
	hd := bufpool.Get(len(head))
	copy(hd, head)
	s.put(key, storeEntry{version: version, buf: buf, levels: true, head: hd, lo: lo, step: step})
}

// put appends e to key's ring, evicting the oldest entry beyond the
// retention window. A ring is allocated once, at its full size.
func (s *store) put(key string, e storeEntry) {
	s.mu.Lock()
	entries := s.m[key]
	if entries == nil {
		entries = make([]storeEntry, 0, baseRetention+1)
	}
	entries = append(entries, e)
	var evicted storeEntry
	if len(entries) > baseRetention {
		evicted = entries[0]
		copy(entries, entries[1:])
		entries = entries[:len(entries)-1]
	}
	s.m[key] = entries
	s.mu.Unlock()
	if evicted.buf != nil {
		evicted.recycle()
	}
}

// with invokes fn with the retained base (key, version) under the store
// lock, returning whether it was resident.
func (s *store) with(key string, version int, fn func(e *storeEntry)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.m[key]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].version == version {
			fn(&entries[i])
			return true
		}
	}
	return false
}

// newestBelow invokes fn under the store lock with key's newest
// retained base below version — the stream's previous encode, whatever
// the route's cadence — and returns its version, or -1 when key has
// none.
func (s *store) newestBelow(key string, version int, fn func(e *storeEntry)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.m[key]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].version < version {
			fn(&entries[i])
			return entries[i].version
		}
	}
	return -1
}
