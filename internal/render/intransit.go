package render

import (
	"fmt"
	"math"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
)

// BlockTable is the in-transit side of the hybrid visualization
// algorithm: "a single, serial in-transit node receives all blocks of
// down-sampled data and generates a look-up table that records the
// upper and lower bounds of each block to encode their spatial
// relationship", used to identify voxel positions during ray casting
// without a visibility sort or volume reconstruction.
//
// The zero BlockTable is an empty table. Reset empties it for the next
// step but keeps the fields AddMarshalled decoded into, so a table
// reused step after step decodes every block into the same arrays.
type BlockTable struct {
	entries []tableEntry
	bounds  grid.Box
	last    int // cache of the most recently hit block (ray locality)
	// decoded holds the fields AddMarshalled decodes into, the first
	// nDecoded of them registered since the last Reset.
	decoded  []*grid.Field
	nDecoded int
}

// tableEntry is one received down-sampled block: its spatial bounds
// (in down-sampled index space) plus a value range usable for
// empty-space skipping.
type tableEntry struct {
	box        grid.Box
	minV, maxV float64
	field      *grid.Field
}

// NewBlockTable creates an empty table.
func NewBlockTable() *BlockTable { return new(BlockTable) }

// Reset empties the table, keeping the decoded fields' storage for the
// blocks AddMarshalled registers next. Fields registered with Add are
// dropped, not reused.
func (bt *BlockTable) Reset() {
	clear(bt.entries)
	bt.entries = bt.entries[:0]
	bt.bounds = grid.Box{}
	bt.last = 0
	bt.nDecoded = 0
}

// Add registers one rank's down-sampled block.
func (bt *BlockTable) Add(f *grid.Field) {
	lo, hi := f.MinMax()
	bt.entries = append(bt.entries, tableEntry{box: f.Box, minV: lo, maxV: hi, field: f})
	bt.bounds = bt.bounds.Union(f.Box)
}

// AddMarshalled decodes and registers a block transported as bytes,
// decoding into a field kept from before the last Reset when there is
// one.
func (bt *BlockTable) AddMarshalled(p []byte) error {
	if bt.nDecoded == len(bt.decoded) {
		bt.decoded = append(bt.decoded, new(grid.Field))
	}
	f := bt.decoded[bt.nDecoded]
	if err := grid.UnmarshalFieldInto(p, f); err != nil {
		return fmt.Errorf("render: block table: %w", err)
	}
	bt.nDecoded++
	bt.Add(f)
	return nil
}

// Len returns the number of registered blocks.
func (bt *BlockTable) Len() int { return len(bt.entries) }

// Bounds returns the union box of all registered blocks.
func (bt *BlockTable) Bounds() grid.Box { return bt.bounds }

// ValueRange returns the global scalar extrema across all registered
// blocks, which the table records per block anyway for empty-space
// skipping. An empty table returns (+Inf, -Inf).
func (bt *BlockTable) ValueRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range bt.entries {
		if bt.entries[i].minV < lo {
			lo = bt.entries[i].minV
		}
		if bt.entries[i].maxV > hi {
			hi = bt.entries[i].maxV
		}
	}
	return
}

// locate returns the index of the block containing continuous point p,
// or -1. The last-hit cache (per cursor, so concurrent row bands never
// share it) makes the common case O(1) because ray samples are
// spatially coherent.
func (bt *BlockTable) locate(last *int, x, y, z float64) int {
	p := [3]float64{x, y, z}
	if i := *last; i < len(bt.entries) && contains(bt.entries[i].box, p) {
		return i
	}
	for i := range bt.entries {
		if contains(bt.entries[i].box, p) {
			*last = i
			return i
		}
	}
	return -1
}

// Sample returns the scalar at a continuous position in down-sampled
// index space, interpolating within the containing block (clamped at
// block faces: the down-sampled blocks carry no ghost layers, which is
// part of the fidelity trade-off the hybrid algorithm accepts).
// Sample mutates the table's shared last-hit cache and is therefore
// not safe for concurrent use; the renderer obtains an independent
// tableCursor per row band instead.
func (bt *BlockTable) Sample(x, y, z float64) float64 {
	i := bt.locate(&bt.last, x, y, z)
	if i < 0 {
		return math.Inf(-1) // outside every block: transparent
	}
	return bt.entries[i].field.Sample(x, y, z)
}

// tableCursor is a per-band view of a BlockTable with a private
// last-hit cache, handed to each rendering worker.
type tableCursor struct {
	bt   *BlockTable
	last int
}

// Sample implements sampler over the cursor's private cache.
func (c *tableCursor) Sample(x, y, z float64) float64 {
	i := c.bt.locate(&c.last, x, y, z)
	if i < 0 {
		return math.Inf(-1)
	}
	return c.bt.entries[i].field.Sample(x, y, z)
}

// bandSampler hands each rendering row band an independent cursor.
func (bt *BlockTable) bandSampler() sampler { return &tableCursor{bt: bt} }

// RenderTable runs the serial in-transit ray caster over the assembled
// table. The caller passes a Renderer framed for the *down-sampled*
// index space (Global = table bounds).
func (r *Renderer) RenderTable(bt *BlockTable) (*Image, error) {
	if bt.Len() == 0 {
		return nil, fmt.Errorf("render: empty block table")
	}
	return r.renderWith(bt, bt.bounds), nil
}

// DownsampleForTransit is the in-situ stage of the hybrid algorithm:
// restrict the rank's owned block to every factor-th grid point and
// marshal it for the staging transfer. It returns the payload and its
// size in bytes. The payload buffer comes from bufpool (the transfer
// path recycles it once the staging bucket has pulled the data) and
// the samples go from the simulation's storage straight into it.
func DownsampleForTransit(f *grid.Field, owned grid.Box, factor int) ([]byte, int) {
	p := f.AppendDownsampleMarshal(bufpool.Get(f.DownsampleMarshalSize(owned, factor))[:0], owned, factor)
	return p, len(p)
}
