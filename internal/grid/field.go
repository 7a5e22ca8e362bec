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
	st := f.Box.Strides()
	rowLen := sub.Hi[0] - sub.Lo[0]
	srcYStride, srcZStride := st[1], st[2]
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
	ss, ds := src.Box.Strides(), f.Box.Strides()
	rowLen := ov.Hi[0] - ov.Lo[0]
	srcYStride, srcZStride := ss[1], ss[2]
	dstYStride, dstZStride := ds[1], ds[2]
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
func (f *Field) MarshalSize() int { return marshalSize(f.Name, len(f.Data)) }

func marshalSize(name string, n int) int { return 4 + len(name) + 7*8 + 8*n }

// AppendMarshal appends the field's encoding (name, box, data) to dst
// and returns the extended slice. The float64 payload is encoded by
// writing math.Float64bits words straight into the destination — no
// intermediate bytes.Buffer, no per-value staging array — so a
// preallocated dst makes the pack a single pass with zero allocations.
func (f *Field) AppendMarshal(dst []byte) []byte {
	dst, off := appendHeader(dst, f.Name, f.Box, len(f.Data))
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

// appendHeader extends dst by the encoding of a field named name with n
// values on box, growing it only when its capacity falls short, and
// writes the header (name, box, count). It returns the extended slice
// and the offset of the n float64 words the caller writes.
func appendHeader(dst []byte, name string, box Box, n int) ([]byte, int) {
	off := len(dst)
	need := marshalSize(name, n)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(name)))
	off += 4
	copy(dst[off:], name)
	off += len(name)
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(box.Lo[d])))
		off += 8
	}
	for d := 0; d < 3; d++ {
		binary.LittleEndian.PutUint64(dst[off:], uint64(int64(box.Hi[d])))
		off += 8
	}
	binary.LittleEndian.PutUint64(dst[off:], uint64(n))
	return dst, off + 8
}

// downsampled returns the box of region (which must be contained in
// f.Box) restricted to every factor-th global grid point, in the
// down-sampled index space: point (i,j,k) of it is point
// (i*factor, j*factor, k*factor) of the global grid.
func (f *Field) downsampled(region Box, factor int) Box {
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
	return sub
}

// DownsampleMarshalSize returns the exact size AppendDownsampleMarshal
// appends for region and factor.
func (f *Field) DownsampleMarshalSize(region Box, factor int) int {
	return marshalSize(f.Name, f.downsampled(region, factor).Size())
}

// AppendDownsampleMarshal appends to dst the encoding of region (which
// must be contained in f.Box) restricted to every factor-th global grid
// point — the paper's hybrid visualization down-samples at every 8th
// point in situ — and returns the extended slice. The bytes are those
// of Extract(region) down-sampled and then marshalled, with the box in
// the down-sampled index space, but the samples go from the field's
// storage straight into dst: no down-sampled field is built, so the
// in-situ stage costs only the bytes it ships.
func (f *Field) AppendDownsampleMarshal(dst []byte, region Box, factor int) []byte {
	sub := f.downsampled(region, factor)
	dst, off := appendHeader(dst, f.Name, sub, sub.Size())
	if sub.Empty() {
		return dst
	}
	st := f.Box.Strides()
	xStride, yStride, zStride := factor*st[0], factor*st[1], factor*st[2]
	srcPlane := f.Box.Index(sub.Lo[0]*factor, sub.Lo[1]*factor, sub.Lo[2]*factor)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		srcRow := srcPlane
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			srcOff := srcRow
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(f.Data[srcOff]))
				off += 8
				srcOff += xStride
			}
			srcRow += yStride
		}
		srcPlane += zStride
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
	off, _, ok := parseHeader(p)
	return off, ok
}

// FloatTail is FloatTailOffset plus the tail's x and y extents: the
// values run x fastest over the header's box, so a codec can predict
// each one from its neighbours along x, y and z. nx and ny are 0 when
// the box does not hold exactly the tail's values.
func FloatTail(p []byte) (off, nx, ny int, ok bool) {
	off, box, ok := parseHeader(p)
	if !ok {
		return 0, 0, 0, false
	}
	count := (len(p) - off) / 8
	if n, fits := box.sizeAtMost(count); fits && n == count && n > 0 {
		d := box.Dims()
		nx, ny = d[0], d[1]
	}
	return off, nx, ny, true
}

// parseHeader is the one parser of a field marshal's header (name
// length, name, box, count): it returns the offset of the float64 tail
// and the box, with ok false when the declared count does not fill the
// bytes after the header exactly. The box is not checked against the
// count.
func parseHeader(p []byte) (int, Box, bool) {
	if len(p) < 4 {
		return 0, Box{}, false
	}
	nameLen := int(binary.LittleEndian.Uint32(p[:4]))
	off := 4 + nameLen + 7*8
	if off > len(p) {
		return 0, Box{}, false
	}
	if rest := len(p) - off; rest%8 != 0 || binary.LittleEndian.Uint64(p[off-8:]) != uint64(rest/8) {
		return 0, Box{}, false
	}
	word := func(i int) int { return int(int64(binary.LittleEndian.Uint64(p[off-7*8+8*i:]))) }
	box := Box{Lo: [3]int{word(0), word(1), word(2)}, Hi: [3]int{word(3), word(4), word(5)}}
	return off, box, true
}

// UnmarshalField reconstructs a field from Marshal's output. Every
// error wraps ErrCorruptField.
func UnmarshalField(p []byte) (*Field, error) {
	f := new(Field)
	if err := UnmarshalFieldInto(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

// UnmarshalFieldInto decodes Marshal's output into dst, reusing dst's
// Data when its capacity suffices and its Name when the names match, so
// a destination decoded into step after step allocates nothing. On an
// error, which wraps ErrCorruptField, dst is left as it was.
func UnmarshalFieldInto(p []byte, dst *Field) error {
	off, box, ok := parseHeader(p)
	if !ok {
		return fmt.Errorf("%w: %d bytes are not a header and the values it counts", ErrCorruptField, len(p))
	}
	n := (len(p) - off) / 8
	if size, ok := box.sizeAtMost(n); !ok || size != n {
		return fmt.Errorf("%w: %d values for box %v", ErrCorruptField, n, box)
	}
	if name := p[4 : off-7*8]; dst.Name != string(name) {
		dst.Name = string(name)
	}
	dst.Box = box
	if cap(dst.Data) >= n {
		dst.Data = dst.Data[:n]
	} else {
		dst.Data = make([]float64, n)
	}
	for i := range dst.Data {
		dst.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+8*i:]))
	}
	return nil
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
