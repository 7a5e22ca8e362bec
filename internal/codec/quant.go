package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"insitu/internal/bufpool"
)

// The quantize codec packs the float64 tail of a payload under an
// absolute max-error bound: values are mapped onto a uniform grid of
// 2^bits levels spanning the payload's [min, max], with bits chosen as
// the smallest width whose half-step quantization error satisfies the
// bound. The levels are written as the residuals of a 3-D Lorenzo
// predictor, the one the SZ compressor uses: each level is predicted
// from the seven already-written corners of the unit cube behind it,
// along x, y and z of the tail's shape (Spec.NX, Spec.NY; a tail of
// unknown shape is one row, and the predictor is then the previous
// level). Neighbours of a smooth field differ by a few levels, so most
// residuals take a few bits. The levels go in blocks of quantBlock, and
// each block is written at its own width, either as zigzagged residuals
// or as raw levels, whichever packs smaller; on noise a block costs its
// raw width plus a 7-bit header. Bytes before the float tail (marshal
// headers: name, box, count) travel verbatim. Payloads containing
// non-finite values, or needing more than 32 bits per value, fall back
// to a literal frame so the error bound is honored unconditionally (a
// literal frame has error 0).
//
// Quantize metadata:
//
//	[0]     mode: 0 literal, 1 packed
//	[1:5]   float-tail offset, uint32
//	[5]     bits per level (1..32)
//	[6:14]  grid origin (min value), float64
//	[14:22] grid step, float64
//	[22:26] tail x extent nx, uint32
//	[26:30] tail y extent ny, uint32
//
// in packed mode; literal mode carries only [0]. A packed body is the
// verbatim bytes before the tail, then one LSB-first bit stream: per
// block of quantBlock levels (x fastest, then y, then z; the last block
// may be shorter), a 6-bit width w and a 1-bit flag, set when the block
// holds residuals, then each of its levels or zigzagged residuals in w
// bits.
const (
	quantLiteral = 0
	quantPacked  = 1

	quantMetaLen = 1 + 4 + 1 + 8 + 8 + 4 + 4
	maxQuantBits = 32

	quantBlock      = 16
	blockHeaderBits = 7
	predictedFlag   = 1 << 6
)

// levelScratch recycles the quantize codec's level arrays, on both
// sides: a payload's levels, then one zero row that stands in for the
// neighbours outside the grid.
var levelScratch bufpool.List[[]uint32]

func getLevels(n int) []uint32 {
	if lv := levelScratch.Get(); cap(lv) >= n {
		return lv[:n]
	}
	return make([]uint32, n)
}

// shapeFits reports whether count levels fill whole nx-by-ny planes.
// The guards come first so nx*ny cannot overflow.
func shapeFits(nx, ny, count int) bool {
	return nx >= 1 && ny >= 1 && nx <= count && ny <= count/nx && count%(nx*ny) == 0
}

func encodeQuantize(spec Spec, raw []byte, floatOff int) (Result, error) {
	count, err := checkTail(raw, floatOff)
	if err != nil {
		return Result{}, err
	}
	if count == 0 {
		return quantLiteralFrame(raw), nil
	}
	nx, ny := spec.NX, spec.NY
	if nx == 0 && ny == 0 {
		nx, ny = count, 1
	}
	if !shapeFits(nx, ny, count) {
		return Result{}, fmt.Errorf("%w: %d floats do not fill %dx%d planes", ErrBadInput, count, nx, ny)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	finite := true
	for i := 0; i < count; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[floatOff+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !finite {
		return quantLiteralFrame(raw), nil
	}
	rng := hi - lo
	maxErr := spec.MaxError
	if maxErr <= 0 {
		maxErr = DefaultRelError * rng
	}
	nbits := 1
	for nbits <= maxQuantBits {
		levels := float64(uint64(1)<<uint(nbits) - 1)
		if rng == 0 || rng/levels/2 <= maxErr {
			break
		}
		nbits++
	}
	if nbits > maxQuantBits {
		return quantLiteralFrame(raw), nil
	}
	levels := uint64(1)<<uint(nbits) - 1
	step := 0.0
	if rng > 0 {
		step = rng / float64(levels)
	}

	// Quantize, tracking the actual worst-case reconstruction error for
	// the metrics surface.
	lv := getLevels(count + nx)
	actualErr := 0.0
	for i := 0; i < count; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[floatOff+8*i:]))
		var q uint64
		if step > 0 {
			q = uint64(math.Round((v - lo) / step))
			if q > levels {
				q = levels
			}
		}
		if e := math.Abs(v - (lo + float64(q)*step)); e > actualErr {
			actualErr = e
		}
		lv[i] = uint32(q)
	}
	clear(lv[count:])

	// A block never packs wider than its raw levels.
	blocks := (count + quantBlock - 1) / quantBlock
	frame := newFrame(Quantize, len(raw), quantMetaLen, floatOff+(count*nbits+blocks*blockHeaderBits+7)/8)
	meta := frame[headerSize : headerSize+quantMetaLen]
	meta[0] = quantPacked
	binary.LittleEndian.PutUint32(meta[1:5], uint32(floatOff))
	meta[5] = byte(nbits)
	binary.LittleEndian.PutUint64(meta[6:14], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(meta[14:22], math.Float64bits(step))
	binary.LittleEndian.PutUint32(meta[22:26], uint32(nx))
	binary.LittleEndian.PutUint32(meta[26:30], uint32(ny))
	body := frame[headerSize+quantMetaLen:]
	copy(body, raw[:floatOff])

	w := bitWriter{buf: body[floatOff:]}
	var zz [quantBlock]uint64
	n, start := 0, 0
	rows := rowWalk{lv: lv[:count], zero: lv[count:], nx: nx, ny: ny}
	for cur, up, back, diag, ok := rows.next(); ok; cur, up, back, diag, ok = rows.next() {
		up, back, diag = up[:len(cur)], back[:len(cur)], diag[:len(cur)]
		var prevQ, prevS int64
		for x, q := range cur {
			s := int64(up[x]) + int64(back[x]) - int64(diag[x])
			r := int64(q) - (prevQ + s - prevS)
			prevQ, prevS = int64(q), s
			zz[n] = uint64(r<<1 ^ r>>63)
			if n++; n == quantBlock {
				w.block(lv[start:start+n], zz[:n])
				start, n = start+n, 0
			}
		}
	}
	if n > 0 {
		w.block(lv[start:start+n], zz[:n])
	}
	levelScratch.Put(lv)
	return Result{Frame: frame[:headerSize+quantMetaLen+floatOff+w.finish()], MaxError: actualErr}, nil
}

// quantLiteralFrame wraps raw verbatim in a quantize frame (error 0).
func quantLiteralFrame(raw []byte) Result {
	frame := newFrame(Quantize, len(raw), 1, len(raw))
	frame[headerSize] = quantLiteral
	copy(frame[headerSize+1:], raw)
	return Result{Frame: frame}
}

func decodeQuantize(rawSize int, meta, body []byte) ([]byte, error) {
	if len(meta) < 1 {
		return nil, fmt.Errorf("%w: empty quantize meta", ErrBadMeta)
	}
	switch meta[0] {
	case quantLiteral:
		if len(body) != rawSize {
			return nil, fmt.Errorf("%w: literal body %d bytes, raw size %d", ErrSizeMismatch, len(body), rawSize)
		}
		raw := bufpool.Get(rawSize)
		copy(raw, body)
		return raw, nil
	case quantPacked:
	default:
		return nil, fmt.Errorf("%w: quantize mode %d", ErrBadMeta, meta[0])
	}
	if len(meta) != quantMetaLen {
		return nil, fmt.Errorf("%w: quantize meta %d bytes", ErrBadMeta, len(meta))
	}
	floatOff := int(binary.LittleEndian.Uint32(meta[1:5]))
	nbits := int(meta[5])
	lo := math.Float64frombits(binary.LittleEndian.Uint64(meta[6:14]))
	step := math.Float64frombits(binary.LittleEndian.Uint64(meta[14:22]))
	nx := int(binary.LittleEndian.Uint32(meta[22:26]))
	ny := int(binary.LittleEndian.Uint32(meta[26:30]))
	if nbits < 1 || nbits > maxQuantBits {
		return nil, fmt.Errorf("%w: %d bits per value", ErrBadMeta, nbits)
	}
	if floatOff < 0 || floatOff > rawSize || (rawSize-floatOff)%8 != 0 {
		return nil, fmt.Errorf("%w: float tail at %d of raw %d", ErrBadMeta, floatOff, rawSize)
	}
	if len(body) < floatOff {
		return nil, fmt.Errorf("%w: packed body %d bytes, header alone is %d", ErrTruncated, len(body), floatOff)
	}
	count := (rawSize - floatOff) / 8
	stream := body[floatOff:]
	if err := scanBlocks(stream, count, nbits); err != nil {
		return nil, err
	}
	if !shapeFits(nx, ny, count) {
		return nil, fmt.Errorf("%w: %d floats do not fill %dx%d planes", ErrBadMeta, count, nx, ny)
	}

	// Each block is unpacked into the levels it covers when the walk
	// reaches its first one. A raw block's values are its levels (in
	// range, as no block is wider than nbits); a residual block's turn
	// into levels as the walk passes them, after every level their
	// predictions read.
	lv := getLevels(count + nx)
	clear(lv[count:])
	maxLevel := uint64(1)<<nbits - 1
	r := bitReader{buf: stream}
	k, start, predicted := 0, 0, false
	rows := rowWalk{lv: lv[:count], zero: lv[count:], nx: nx, ny: ny}
	for cur, up, back, diag, ok := rows.next(); ok; cur, up, back, diag, ok = rows.next() {
		up, back, diag = up[:len(cur)], back[:len(cur)], diag[:len(cur)]
		var prevQ, prevS int64
		for x := 0; x < len(cur); {
			if k == 0 {
				k = min(count-start, quantBlock)
				predicted = r.block(lv[start : start+k])
				start += k
			}
			end := min(len(cur), x+k)
			k -= end - x
			if !predicted {
				x = end
				prevQ, prevS = int64(cur[x-1]), int64(up[x-1])+int64(back[x-1])-int64(diag[x-1])
				continue
			}
			for ; x < end; x++ {
				s := int64(up[x]) + int64(back[x]) - int64(diag[x])
				v := cur[x]
				q := prevQ + s - prevS + (int64(v>>1) ^ -int64(v&1))
				if uint64(q) > maxLevel {
					levelScratch.Put(lv)
					return nil, fmt.Errorf("%w: level %d outside %d bits", ErrBadMeta, q, nbits)
				}
				cur[x] = uint32(q)
				prevQ, prevS = q, s
			}
		}
	}
	raw := bufpool.Get(rawSize)
	copy(raw, body[:floatOff])
	tail := raw[floatOff:]
	for i, q := range lv[:count] {
		binary.LittleEndian.PutUint64(tail[8*i:], math.Float64bits(lo+float64(q)*step))
	}
	levelScratch.Put(lv)
	return raw, nil
}

// scanBlocks walks the block headers of a packed stream of count
// levels without decoding them, so a frame whose stream is short, long
// or holds an impossible width is refused before any buffer is drawn
// for its declared size. No block is wider than the levels' bits: the
// encoder writes residuals only when they pack narrower than the
// levels. Each block costs at least its header, so the walk stops
// within len(stream)*8/blockHeaderBits steps whatever count says.
func scanBlocks(stream []byte, count, maxWidth int) error {
	total := 8 * len(stream)
	pos := 0
	for left := count; left > 0; left -= quantBlock {
		if pos+blockHeaderBits > total {
			return fmt.Errorf("%w: stream ends at bit %d before a block header", ErrTruncated, total)
		}
		h := int(stream[pos/8]) >> (pos % 8)
		if pos/8+1 < len(stream) {
			h |= int(stream[pos/8+1]) << (8 - pos%8)
		}
		width := h & (predictedFlag - 1)
		if width > maxWidth {
			return fmt.Errorf("%w: block width %d over %d", ErrBadMeta, width, maxWidth)
		}
		pos += blockHeaderBits + min(left, quantBlock)*width
		if pos > total {
			return fmt.Errorf("%w: stream ends at bit %d inside a block", ErrTruncated, total)
		}
	}
	if used := (pos + 7) / 8; used != len(stream) {
		return fmt.Errorf("%w: packed stream %d bytes, its blocks fill %d", ErrSizeMismatch, len(stream), used)
	}
	return nil
}

// rowWalk hands out the rows of an nx-by-ny-by-nz level array in
// order, each with the three rows its Lorenzo predictor reads: the row
// above it (y-1), the row behind it (z-1) and the row above that one.
// A neighbour outside the grid is zero, the row of zeros after the
// levels.
type rowWalk struct {
	lv, zero []uint32
	nx, ny   int
	i, y     int
}

func (w *rowWalk) next() (cur, up, back, diag []uint32, ok bool) {
	if w.i == len(w.lv) {
		return nil, nil, nil, nil, false
	}
	i, nx, plane := w.i, w.nx, w.nx*w.ny
	cur, up, back, diag = w.lv[i:i+nx], w.zero, w.zero, w.zero
	if w.y > 0 {
		up = w.lv[i-nx : i]
	}
	if i >= plane {
		back = w.lv[i-plane : i-plane+nx]
		if w.y > 0 {
			diag = w.lv[i-plane-nx : i-plane]
		}
	}
	w.i += nx
	if w.y++; w.y == w.ny {
		w.y = 0
	}
	return cur, up, back, diag, true
}

// bitWriter appends values LSB-first through a 64-bit accumulator.
type bitWriter struct {
	buf  []byte
	n    int
	acc  uint64
	nacc uint
}

// write appends the low width bits of v (v < 1<<width, width <= 32).
func (w *bitWriter) write(v uint64, width int) {
	w.acc |= v << w.nacc
	if w.nacc += uint(width); w.nacc >= 32 {
		binary.LittleEndian.PutUint32(w.buf[w.n:], uint32(w.acc))
		w.n += 4
		w.acc >>= 32
		w.nacc -= 32
	}
}

// block writes one block of levels q with their zigzagged residuals zz,
// whichever is narrower, behind its header.
func (w *bitWriter) block(q []uint32, zz []uint64) {
	var rawOr uint32
	for _, v := range q {
		rawOr |= v
	}
	var resOr uint64
	for _, v := range zz {
		resOr |= v
	}
	if width := bits.Len64(resOr); width < bits.Len32(rawOr) {
		w.write(uint64(width|predictedFlag), blockHeaderBits)
		for _, v := range zz {
			w.write(v, width)
		}
		return
	}
	width := bits.Len32(rawOr)
	w.write(uint64(width), blockHeaderBits)
	for _, v := range q {
		w.write(uint64(v), width)
	}
}

// finish flushes the bits still in the accumulator and returns the
// bytes written.
func (w *bitWriter) finish() int {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.buf[w.n] = byte(w.acc)
		w.n++
		w.acc >>= 8
	}
	return w.n
}

// bitReader reads what bitWriter wrote. The stream has passed
// scanBlocks, so it holds every bit a read asks for.
type bitReader struct {
	buf  []byte
	pos  int
	acc  uint64
	nacc uint
}

// block reads one block header and the len(dst) values behind it into
// dst, and reports whether they are residuals.
func (r *bitReader) block(dst []uint32) (predicted bool) {
	h := r.take(blockHeaderBits)
	width := uint(h &^ predictedFlag)
	if width == 0 {
		clear(dst)
		return h&predictedFlag != 0
	}
	// A refill holds at least 56 bits, or the rest of the stream, which
	// holds every value left in the block: take up to 56/width values
	// per refill, each by its own shift.
	mask, per := uint64(1)<<width-1, 56/int(width)
	for len(dst) > 0 {
		r.refill()
		n := min(per, len(dst))
		acc, sh := r.acc, uint(0)
		for j := range dst[:n] {
			dst[j] = uint32(acc >> sh & mask)
			sh += width
		}
		r.acc >>= sh
		r.nacc -= sh
		dst = dst[n:]
	}
	return h&predictedFlag != 0
}

// take returns the next width bits.
func (r *bitReader) take(width uint) uint64 {
	if r.nacc < width {
		r.refill()
	}
	v := r.acc & (1<<width - 1)
	r.acc >>= width
	r.nacc -= width
	return v
}

// refill tops the accumulator up to at least 56 bits, or to the end of
// the stream. A whole-word load takes the whole bytes that fit above
// the nacc bits held, leaving 56 + nacc%8; it may also place the next
// byte's low bits above them, and the next load ORs the same bits
// there.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.LittleEndian.Uint64(r.buf[r.pos:]) << r.nacc
		r.pos += int((63 - r.nacc) >> 3)
		r.nacc |= 56
		return
	}
	for ; r.nacc <= 56 && r.pos < len(r.buf); r.pos++ {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.nacc += 8
	}
}
