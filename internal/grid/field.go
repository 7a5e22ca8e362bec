package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorruptField is wrapped by every UnmarshalField error: the payload
// is not the output of Field.Marshal.
var ErrCorruptField = errors.New("grid: corrupt field payload")

// Field is a named scalar field sampled on the points of a Box.
// Data is linearized x-fastest. All simulation variables are float64,
// matching the paper's 8-byte doubles.
type Field struct {
	Name string
	Box  Box
	Data []float64
}

// NewField allocates a zero-initialized field covering box.
func NewField(name string, box Box) *Field {
	return &Field{Name: name, Box: box, Data: make([]float64, box.Size())}
}

// At returns the value at global point (i,j,k), which must lie inside
// the field's box.
func (f *Field) At(i, j, k int) float64 { return f.Data[f.Box.Index(i, j, k)] }

// Set stores v at global point (i,j,k).
func (f *Field) Set(i, j, k int, v float64) { f.Data[f.Box.Index(i, j, k)] = v }

// Extract copies the sub-box sub (which must be contained in f.Box)
// into a newly allocated field.
func (f *Field) Extract(sub Box) *Field {
	return f.ExtractInto(sub, nil)
}

// ExtractInto copies the sub-box sub (which must be contained in
// f.Box) into dst, reusing dst's Data slice when its capacity
// suffices — the allocation-free fast path of the per-timestep
// transfer pipeline. dst may be nil or empty, in which case a fresh
// field is allocated. The (possibly re-sliced) destination is
// returned. The row loop carries running source/destination offsets
// instead of recomputing Box.Index per row.
func (f *Field) ExtractInto(sub Box, dst *Field) *Field {
	if !f.Box.ContainsBox(sub) {
		panic(fmt.Sprintf("grid: extract %v outside field box %v", sub, f.Box))
	}
	if dst == nil {
		dst = &Field{}
	}
	n := sub.Size()
	if cap(dst.Data) >= n {
		dst.Data = dst.Data[:n]
	} else {
		dst.Data = make([]float64, n)
	}
	dst.Name = f.Name
	dst.Box = sub
	sd := f.Box.Dims()
	rowLen := sub.Hi[0] - sub.Lo[0]
	srcYStride := sd[0]
	srcZStride := sd[0] * sd[1]
	srcPlane := f.Box.Index(sub.Lo[0], sub.Lo[1], sub.Lo[2])
	dstOff := 0
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		srcOff := srcPlane
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			copy(dst.Data[dstOff:dstOff+rowLen], f.Data[srcOff:srcOff+rowLen])
			srcOff += srcYStride
			dstOff += rowLen
		}
		srcPlane += srcZStride
	}
	return dst
}

// Row returns, without copying, the longest run of f's data that
// starts at cell `at` of sub's x-fastest linearization, stays inside
// one x-row of sub and ends before cell `end`. Walking a sub-box, or
// any linear range [lo, hi) of it, where it lies in a larger field is
//
//	for at := lo; at < hi; at += len(row) { row = f.Row(sub, at, hi); ... }
//
// which visits exactly the values Extract(sub).Data[lo:hi] holds, in
// the same order. sub must be contained in f.Box.
func (f *Field) Row(sub Box, at, end int) []float64 {
	if !f.Box.ContainsBox(sub) {
		panic(fmt.Sprintf("grid: row of %v outside field box %v", sub, f.Box))
	}
	d := sub.Dims()
	i, jk := at%d[0], at/d[0]
	off := f.Box.Index(sub.Lo[0]+i, sub.Lo[1]+jk%d[1], sub.Lo[2]+jk/d[1])
	return f.Data[off : off+min(d[0]-i, end-at)]
}

// Paste copies the overlap of src into f. As in ExtractInto, the row
// loop carries running offsets rather than calling Box.Index per row.
func (f *Field) Paste(src *Field) {
	ov := f.Box.Intersect(src.Box)
	if ov.Empty() {
		return
	}
	sd := src.Box.Dims()
	dd := f.Box.Dims()
	rowLen := ov.Hi[0] - ov.Lo[0]
	srcYStride, srcZStride := sd[0], sd[0]*sd[1]
	dstYStride, dstZStride := dd[0], dd[0]*dd[1]
	srcPlane := src.Box.Index(ov.Lo[0], ov.Lo[1], ov.Lo[2])
	dstPlane := f.Box.Index(ov.Lo[0], ov.Lo[1], ov.Lo[2])
	for k := ov.Lo[2]; k < ov.Hi[2]; k++ {
		srcOff, dstOff := srcPlane, dstPlane
		for j := ov.Lo[1]; j < ov.Hi[1]; j++ {
			copy(f.Data[dstOff:dstOff+rowLen], src.Data[srcOff:srcOff+rowLen])
			srcOff += srcYStride
			dstOff += dstYStride
		}
		srcPlane += srcZStride
		dstPlane += dstZStride
	}
}

// MinMax returns the extrema of the field. An empty field returns
// (+Inf, -Inf).
func (f *Field) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// Downsample returns the field restricted to every factor-th grid point
// in each dimension (the paper's hybrid visualization down-samples at
// every 8th grid point in-situ). The resulting box has coordinates in
// the down-sampled index space: point (i,j,k) of the result corresponds
// to point (i*factor, j*factor, k*factor) of the original global grid.
func (f *Field) Downsample(factor int) *Field {
	if factor < 1 {
		panic("grid: downsample factor must be >= 1")
	}
	var sub Box
	for d := 0; d < 3; d++ {
		sub.Lo[d] = ceilDiv(f.Box.Lo[d], factor)
		sub.Hi[d] = ceilDiv(f.Box.Hi[d], factor)
	}
	g := NewField(f.Name, sub)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				g.Set(i, j, k, f.At(i*factor, j*factor, k*factor))
			}
		}
	}
	return g
}

// DownsampleBox returns region (which must be contained in f.Box)
// restricted to every factor-th global grid point, without
// materializing the intermediate Extract — the single-pass form of
// Extract(region).Downsample(factor) on the per-timestep hybrid
// visualization path. The inner loop walks running source offsets
// instead of calling Box.Index per point.
func (f *Field) DownsampleBox(region Box, factor int) *Field {
	if factor < 1 {
		panic("grid: downsample factor must be >= 1")
	}
	if !f.Box.ContainsBox(region) {
		panic(fmt.Sprintf("grid: downsample region %v outside field box %v", region, f.Box))
	}
	var sub Box
	for d := 0; d < 3; d++ {
		sub.Lo[d] = ceilDiv(region.Lo[d], factor)
		sub.Hi[d] = ceilDiv(region.Hi[d], factor)
	}
	g := NewField(f.Name, sub)
	sd := f.Box.Dims()
	xStride := factor
	yStride := factor * sd[0]
	zStride := factor * sd[0] * sd[1]
	dstOff := 0
	if sub.Empty() {
		return g
	}
	srcPlane := f.Box.Index(sub.Lo[0]*factor, sub.Lo[1]*factor, sub.Lo[2]*factor)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		srcRow := srcPlane
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			srcOff := srcRow
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				g.Data[dstOff] = f.Data[srcOff]
				dstOff++
				srcOff += xStride
			}
			srcRow += yStride
		}
		srcPlane += zStride
	}
	return g
}

// Sample returns the trilinearly interpolated value at the continuous
// position (x,y,z) in the field's global index space. Positions outside
// the box are clamped to it.
func (f *Field) Sample(x, y, z float64) float64 {
	b := f.Box
	x = clampF(x, float64(b.Lo[0]), float64(b.Hi[0]-1))
	y = clampF(y, float64(b.Lo[1]), float64(b.Hi[1]-1))
	z = clampF(z, float64(b.Lo[2]), float64(b.Hi[2]-1))
	i0, j0, k0 := int(x), int(y), int(z)
	i1, j1, k1 := min(i0+1, b.Hi[0]-1), min(j0+1, b.Hi[1]-1), min(k0+1, b.Hi[2]-1)
	fx, fy, fz := x-float64(i0), y-float64(j0), z-float64(k0)
	c000 := f.At(i0, j0, k0)
	c100 := f.At(i1, j0, k0)
	c010 := f.At(i0, j1, k0)
	c110 := f.At(i1, j1, k0)
	c001 := f.At(i0, j0, k1)
	c101 := f.At(i1, j0, k1)
	c011 := f.At(i0, j1, k1)
	c111 := f.At(i1, j1, k1)
	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return c0 + fz*(c1-c0)
}

// MarshalSize returns the exact encoded size of the field, so callers
// can size destination buffers (typically from bufpool) up front.
func (f *Field) MarshalSize() int {
	return 4 + len(f.Name) + 7*8 + 8*len(f.Data)
}

// AppendMarshal appends the field's encoding (name, box, data) to dst
// and returns the extended slice. The float64 payload is encoded by
// writing math.Float64bits words straight into the destination — no
// intermediate bytes.Buffer, no per-value staging array — so a
// preallocated dst makes the pack a single pass with zero allocations.
func (f *Field) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	need := f.MarshalSize()
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(f.Name)))
	off += 4
	copy(dst[off:], f.Name)
	off += len(f.Name)
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(f.Box.Lo[d])))
		off += 8
	}
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(f.Box.Hi[d])))
		off += 8
	}
	binary.LittleEndian.PutUint64(dst[off:], uint64(len(f.Data)))
	off += 8
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

// Marshal serializes the field (name, box, data) into a compact binary
// form suitable for DART transfers and BP files.
func (f *Field) Marshal() []byte {
	return f.AppendMarshal(make([]byte, 0, f.MarshalSize()))
}

// FloatTailOffset returns the byte offset of the float64 data tail
// within a marshalled field payload, for transfer-path codecs that
// transform the tail and carry the header verbatim. It reports ok
// false when p is not a plausible field marshal (too short, or the
// declared count does not fill the remaining bytes exactly).
func FloatTailOffset(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	nameLen := int(binary.LittleEndian.Uint32(p[:4]))
	off := 4 + nameLen + 7*8
	if off > len(p) {
		return 0, false
	}
	if rest := len(p) - off; rest%8 != 0 || binary.LittleEndian.Uint64(p[off-8:]) != uint64(rest/8) {
		return 0, false
	}
	return off, true
}

// UnmarshalField reconstructs a field from Marshal's output. Every
// error wraps ErrCorruptField.
func UnmarshalField(p []byte) (*Field, error) {
	off, ok := FloatTailOffset(p)
	if !ok {
		return nil, fmt.Errorf("%w: %d bytes are not a header and the values it counts", ErrCorruptField, len(p))
	}
	word := func(i int) int { return int(int64(binary.LittleEndian.Uint64(p[off-7*8+8*i:]))) }
	box := Box{Lo: [3]int{word(0), word(1), word(2)}, Hi: [3]int{word(3), word(4), word(5)}}
	n := (len(p) - off) / 8
	if size, ok := box.sizeAtMost(n); !ok || size != n {
		return nil, fmt.Errorf("%w: %d values for box %v", ErrCorruptField, n, box)
	}
	f := &Field{Name: string(p[4 : off-7*8]), Box: box, Data: make([]float64, n)}
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+8*i:]))
	}
	return f, nil
}

func ceilDiv(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -((-a) / b)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
