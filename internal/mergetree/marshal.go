package mergetree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"insitu/internal/grid"
)

// Wire format of a reduced subtree, the intermediate data the hybrid
// topology algorithm ships from the in-situ to the in-transit stage.
// Layout (little endian):
//
//	u32 rank
//	6 x i64 block box (lo, hi)
//	u64 vertex count, then (i64 id, f64 value, u32 degree) per vertex
//	u64 edge count, then (i64 hi, i64 lo) per edge
//
// At 16 bytes per vertex and edge, a reduced subtree is orders of
// magnitude smaller than the block's raw field — the data reduction
// the hybrid formulation relies on (87 MB total vs 98.5 GB raw in the
// paper's run).

// MarshalSize returns the exact encoded size of the subtree.
func (st *Subtree) MarshalSize() int {
	return 4 + 6*8 + 8 + 20*len(st.Verts) + 8 + 16*len(st.Edges)
}

// AppendMarshal appends the subtree's encoding to dst and returns the
// extended slice; with a preallocated dst the pack is allocation-free.
func (st *Subtree) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	need := st.MarshalSize()
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(st.Rank))
	off += 4
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(st.Block.Lo[d])))
		off += 8
	}
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(st.Block.Hi[d])))
		off += 8
	}
	binary.LittleEndian.PutUint64(dst[off:], uint64(len(st.Verts)))
	off += 8
	for _, v := range st.Verts {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v.ID))
		binary.LittleEndian.PutUint64(dst[off+8:], math.Float64bits(v.Value))
		binary.LittleEndian.PutUint32(dst[off+16:], uint32(v.Degree))
		off += 20
	}
	binary.LittleEndian.PutUint64(dst[off:], uint64(len(st.Edges)))
	off += 8
	for _, e := range st.Edges {
		binary.LittleEndian.PutUint64(dst[off:], uint64(e.Hi))
		binary.LittleEndian.PutUint64(dst[off+8:], uint64(e.Lo))
		off += 16
	}
	return dst
}

// ErrCorruptPayload is wrapped by every error the payload decoders
// (Subtree.Unmarshal, UnmarshalFeaturePartials)
// return, and by the decoders of the extras a route appends after a
// subtree: the bytes are not an encoding the in-situ stage produced.
var ErrCorruptPayload = errors.New("mergetree: corrupt payload")

// Unmarshal decodes the subtree encoded at the front of p into st and
// returns the bytes that follow it: the encoding carries its own vertex
// and edge counts, so a payload that appends more after the subtree
// needs no length prefix. Unmarshal reuses the capacity of st's Verts
// and Edges, so an in-transit stage that decodes into the same subtrees
// every step allocates nothing once they have grown. The counts in the
// payload are bounded against the bytes that follow them by division,
// so a hostile count cannot overflow into a huge allocation. On error
// st's contents are unspecified.
func (st *Subtree) Unmarshal(p []byte) ([]byte, error) {
	if len(p) < 4+7*8 {
		return nil, fmt.Errorf("%w: subtree too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	st.Rank = int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	var box grid.Box
	for d := 0; d < 3; d++ {
		box.Lo[d] = int(int64(binary.LittleEndian.Uint64(p[:8])))
		p = p[8:]
	}
	for d := 0; d < 3; d++ {
		box.Hi[d] = int(int64(binary.LittleEndian.Uint64(p[:8])))
		p = p[8:]
	}
	st.Block = box
	count := binary.LittleEndian.Uint64(p[:8])
	p = p[8:]
	if len(p) < 8 || count > uint64(len(p)-8)/20 {
		return nil, fmt.Errorf("%w: %d subtree vertices in %d bytes", ErrCorruptPayload, count, len(p))
	}
	nv := int(count)
	st.Verts = slices.Grow(st.Verts[:0], nv)[:nv]
	for i := 0; i < nv; i++ {
		st.Verts[i].ID = int64(binary.LittleEndian.Uint64(p[:8]))
		st.Verts[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
		st.Verts[i].Degree = int(binary.LittleEndian.Uint32(p[16:20]))
		p = p[20:]
	}
	count = binary.LittleEndian.Uint64(p[:8])
	p = p[8:]
	if count > uint64(len(p))/16 {
		return nil, fmt.Errorf("%w: %d subtree edges in %d bytes", ErrCorruptPayload, count, len(p))
	}
	ne := int(count)
	st.Edges = slices.Grow(st.Edges[:0], ne)[:ne]
	for i := 0; i < ne; i++ {
		st.Edges[i].Hi = int64(binary.LittleEndian.Uint64(p[:8]))
		st.Edges[i].Lo = int64(binary.LittleEndian.Uint64(p[8:16]))
		p = p[16:]
	}
	return p, nil
}
