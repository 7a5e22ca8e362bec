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
// bound. Bytes before the float tail (marshal headers: name, box,
// count) travel verbatim, and the levels travel as residuals of two
// predictors:
//
//   - Temporal: when the stream's newest retained base is a quantize
//     base of the same size and header bytes, its reconstruction (the
//     base's origin plus each base level times the base's step) is
//     re-quantized onto this payload's grid, and the codec codes
//     d = q − clamp(round((recon − lo)/step)) instead of q. A step of a slowly evolving field then leaves most d near
//     zero, even where the field is rough. Without such a base d = q:
//     the frame is spatial-only and self-contained.
//   - Spatial: each d is predicted from the seven already-written
//     corners of the unit cube behind it (the 3-D Lorenzo predictor of
//     the SZ compressor), along x, y and z of the tail's shape
//     (Spec.NX, Spec.NY; a tail of unknown shape is one row, and the
//     predictor is then the previous value).
//
// The arithmetic is modulo 2^32, so every residual is one zigzagged
// int32 and decoding inverts it exactly. The levels go in blocks of
// quantBlock, each either Rice-coded residuals or raw levels at their
// own width, whichever packs smaller; on noise a block costs its raw
// width plus a 7-bit header. The grid (lo, step, bits) and therefore
// every decoded float are the same whichever predictor ran. Payloads
// containing non-finite values, or needing more than 32 bits per value,
// ship raw (identity), so the error bound is honored unconditionally.
//
// Quantize metadata is the stream fields (predictor 1 naming the
// temporal base, or 0), then:
//
//	[0:4]   float-tail offset, uint32
//	[4]     bits per level (1..32)
//	[5:13]  grid origin (min value), float64
//	[13:21] grid step, float64
//	[21:25] tail x extent nx, uint32
//	[25:29] tail y extent ny, uint32
//
// The body is the verbatim bytes before the tail, then one LSB-first
// bit stream: per block of quantBlock levels (x fastest, then y, then
// z; the last block may be shorter), a 6-bit parameter p and a 1-bit
// flag. With the flag clear the block holds its levels in p bits each
// (p ≤ bits). With it set the block holds residuals: none at all when
// p = 0 (every residual is zero), otherwise each residual v as v>>k
// zero bits, a one bit and the low k bits of v, with k = p−1 < bits.
// The encoder writes residuals only when they pack smaller than the
// raw levels, so a residual block never takes more than bits per
// level.
const (
	quantMetaLen = 4 + 1 + 8 + 8 + 4 + 4
	maxQuantBits = 32

	quantBlock      = 32
	blockHeaderBits = 7
	residualFlag    = 1 << 6
)

// levelScratch recycles the quantize codec's level arrays, on both
// sides: a payload's levels (or their differences from the temporal
// prediction), then one zero row that stands in for the neighbours
// outside the grid.
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

func (r *Registry) encodeQuantize(spec Spec, key string, version int, raw []byte, floatOff int) (Result, error) {
	count, err := checkTail(raw, floatOff)
	if err != nil {
		return Result{}, err
	}
	nx, ny := spec.NX, spec.NY
	if nx == 0 && ny == 0 {
		nx, ny = count, 1
	}
	if count > 0 && !shapeFits(nx, ny, count) {
		return Result{}, fmt.Errorf("%w: %d floats do not fill %dx%d planes", ErrBadInput, count, nx, ny)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	finite := count > 0
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
	rng := hi - lo
	maxErr := spec.MaxError
	if maxErr <= 0 {
		maxErr = DefaultRelError * rng
	}
	nbits := 1
	for finite && nbits <= maxQuantBits {
		levels := float64(uint64(1)<<uint(nbits) - 1)
		if rng == 0 || rng/levels/2 <= maxErr {
			break
		}
		nbits++
	}
	if !finite || nbits > maxQuantBits {
		r.bases.putExact(key, version, raw)
		return Result{}, nil
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

	// The differences from the temporal prediction, or the levels
	// themselves when the stream has no matching base.
	dv, temporal := lv, false
	baseVersion := r.bases.newestBelow(key, version, func(e *storeEntry) {
		if e.levels && len(e.buf) == 4*count && string(e.head) == string(raw[:floatOff]) {
			dv, temporal = getLevels(count+nx), true
			predictLevels(dv[:count], e, lo, step, uint32(levels))
		}
	})
	if temporal {
		for i, q := range lv[:count] {
			dv[i] = q - dv[i]
		}
		clear(dv[count:])
	} else {
		baseVersion = -1
	}

	// A block never packs wider than its raw levels.
	blocks := (count + quantBlock - 1) / quantBlock
	metaOff := headerSize + streamMetaLen(key)
	bodyOff := metaOff + quantMetaLen
	frame := newFrame(Quantize, len(raw), bodyOff-headerSize, floatOff+(count*nbits+blocks*blockHeaderBits+7)/8)
	putStreamMeta(frame[headerSize:metaOff], baseVersion, key)
	meta := frame[metaOff:bodyOff]
	binary.LittleEndian.PutUint32(meta[0:4], uint32(floatOff))
	meta[4] = byte(nbits)
	binary.LittleEndian.PutUint64(meta[5:13], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(meta[13:21], math.Float64bits(step))
	binary.LittleEndian.PutUint32(meta[21:25], uint32(nx))
	binary.LittleEndian.PutUint32(meta[25:29], uint32(ny))
	body := frame[bodyOff:]
	copy(body, raw[:floatOff])

	w := bitWriter{buf: body[floatOff:]}
	var zz [quantBlock]uint32
	n, start := 0, 0
	rows := rowWalk{lv: dv[:count], zero: dv[count:], nx: nx, ny: ny}
	for cur, up, back, diag, ok := rows.next(); ok; cur, up, back, diag, ok = rows.next() {
		up, back, diag = up[:len(cur)], back[:len(cur)], diag[:len(cur)]
		var prevD, prevS uint32
		for x, d := range cur {
			s := up[x] + back[x] - diag[x]
			res := int32(d - (prevD + s - prevS))
			prevD, prevS = d, s
			zz[n] = uint32(res<<1 ^ res>>31)
			if n++; n == quantBlock {
				w.block(lv[start:start+n], zz[:n])
				start, n = start+n, 0
			}
		}
	}
	if n > 0 {
		w.block(lv[start:start+n], zz[:n])
	}
	if temporal {
		levelScratch.Put(dv)
	}
	frame = frame[:bodyOff+floatOff+w.finish()]
	if len(frame) >= len(raw) {
		levelScratch.Put(lv)
		bufpool.Put(frame)
		r.bases.putExact(key, version, raw)
		return Result{}, nil
	}
	r.bases.putLevels(key, version, lv[:count], raw[:floatOff], lo, step)
	levelScratch.Put(lv)
	return Result{Frame: frame, MaxError: actualErr}, nil
}

// predictLevels writes into pq the temporal prediction of each level on
// the grid (lo, step) with maxLevel levels: the levels base's
// reconstruction, re-quantized onto this grid and clamped to it.
func predictLevels(pq []uint32, base *storeEntry, lo, step float64, maxLevel uint32) {
	if step == 0 {
		clear(pq)
		return
	}
	for i := range pq {
		recon := base.lo + float64(binary.LittleEndian.Uint32(base.buf[4*i:]))*base.step
		switch f := math.Round((recon - lo) / step); {
		case f <= 0:
			pq[i] = 0
		case f >= float64(maxLevel):
			pq[i] = maxLevel
		default:
			pq[i] = uint32(f)
		}
	}
}

func (r *Registry) decodeQuantize(rawSize int, meta, body []byte) ([]byte, error) {
	key, baseVersion, temporal, qm, err := parseStreamMeta(meta)
	if err != nil {
		return nil, err
	}
	if len(qm) != quantMetaLen {
		return nil, fmt.Errorf("%w: quantize meta %d bytes", ErrBadMeta, len(qm))
	}
	floatOff := int(binary.LittleEndian.Uint32(qm[0:4]))
	nbits := int(qm[4])
	lo := math.Float64frombits(binary.LittleEndian.Uint64(qm[5:13]))
	step := math.Float64frombits(binary.LittleEndian.Uint64(qm[13:21]))
	nx := int(binary.LittleEndian.Uint32(qm[21:25]))
	ny := int(binary.LittleEndian.Uint32(qm[25:29]))
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
	// A base fits when it holds count levels behind floatOff bytes, so
	// neither size is taken from the frame alone.
	fits := func(e *storeEntry) bool { return e.levels && len(e.buf) == 4*count && len(e.head) == floatOff }
	if temporal {
		resident := false
		r.bases.with(string(key), baseVersion, func(e *storeEntry) { resident = fits(e) })
		if !resident {
			return nil, fmt.Errorf("%w: %s@%d", ErrNoBase, key, baseVersion)
		}
	}
	stream := body[floatOff:]
	if err := scanBlocks(stream, count, nbits); err != nil {
		return nil, err
	}
	if !shapeFits(nx, ny, count) {
		return nil, fmt.Errorf("%w: %d floats do not fill %dx%d planes", ErrBadMeta, count, nx, ny)
	}
	maxLevel := uint32(uint64(1)<<nbits - 1)
	var pq []uint32
	if temporal {
		pq = getLevels(count + nx)[:count] // the size every level array has
		predicted := false
		r.bases.with(string(key), baseVersion, func(e *storeEntry) {
			if fits(e) {
				predictLevels(pq, e, lo, step, maxLevel)
				predicted = true
			}
		})
		if !predicted {
			levelScratch.Put(pq)
			return nil, fmt.Errorf("%w: %s@%d", ErrNoBase, key, baseVersion)
		}
	}

	// Each block is unpacked into the values it covers when the walk
	// reaches its first one. A raw block's values are its levels, which
	// become differences from the temporal prediction at once; a
	// residual block's turn into differences as the walk passes them,
	// after every one their predictions read. The levels are the
	// differences plus the prediction.
	lv := getLevels(count + nx)
	clear(lv[count:])
	rd := bitReader{buf: stream}
	k, start, residual := 0, 0, false
	rows := rowWalk{lv: lv[:count], zero: lv[count:], nx: nx, ny: ny}
	for cur, up, back, diag, ok := rows.next(); ok; cur, up, back, diag, ok = rows.next() {
		up, back, diag = up[:len(cur)], back[:len(cur)], diag[:len(cur)]
		var prevD, prevS uint32
		for x := 0; x < len(cur); {
			if k == 0 {
				k = min(count-start, quantBlock)
				blk := lv[start : start+k]
				if residual = rd.block(blk); !residual && pq != nil {
					for j, p := range pq[start : start+k] {
						blk[j] -= p
					}
				}
				start += k
			}
			end := min(len(cur), x+k)
			k -= end - x
			if !residual {
				x = end
				prevD, prevS = cur[x-1], up[x-1]+back[x-1]-diag[x-1]
				continue
			}
			for ; x < end; x++ {
				s := up[x] + back[x] - diag[x]
				v := cur[x]
				d := prevD + s - prevS + (v>>1 ^ -(v & 1))
				cur[x] = d
				prevD, prevS = d, s
			}
		}
	}
	if pq != nil {
		for i, p := range pq {
			lv[i] += p
		}
		levelScratch.Put(pq)
	}
	raw := bufpool.Get(rawSize)
	copy(raw, body[:floatOff])
	tail := raw[floatOff:]
	for i, q := range lv[:count] {
		if q > maxLevel {
			levelScratch.Put(lv)
			bufpool.Put(raw)
			return nil, fmt.Errorf("%w: level %d outside %d bits", ErrBadMeta, q, nbits)
		}
		binary.LittleEndian.PutUint64(tail[8*i:], math.Float64bits(lo+float64(q)*step))
	}
	levelScratch.Put(lv)
	return raw, nil
}

// scanBlocks walks the blocks of a packed stream of count levels
// without decoding them, so a frame whose stream is short, long or
// holds an impossible block is refused before any buffer is drawn for
// its declared size. A raw block is no wider than the levels' bits; a
// residual block's Rice parameter is under them, and its codes fit the
// bits its levels would take raw (the encoder writes residuals only
// when they pack smaller), so each unary run is walked within that
// budget. Each block costs at least its header and each step of the
// walk at least one bit, so the walk stops within the stream whatever
// count says.
func scanBlocks(stream []byte, count, nbits int) error {
	rd := bitReader{buf: stream}
	truncated := func() error {
		return fmt.Errorf("%w: stream of %d bytes ends inside a block", ErrTruncated, len(stream))
	}
	for left := count; left > 0; left -= quantBlock {
		if rd.refill(); rd.nacc < blockHeaderBits {
			return fmt.Errorf("%w: stream of %d bytes ends before a block header", ErrTruncated, len(stream))
		}
		h := int(rd.take(blockHeaderBits))
		n, p := min(left, quantBlock), h&(residualFlag-1)
		if h&residualFlag == 0 {
			if p > nbits {
				return fmt.Errorf("%w: block width %d over %d", ErrBadMeta, p, nbits)
			}
			for skip := uint(n * p); skip > 0; {
				if rd.refill(); rd.nacc == 0 {
					return truncated()
				}
				c := min(skip, rd.nacc)
				rd.acc >>= c
				rd.nacc -= c
				skip -= c
			}
			continue
		}
		if p == 0 {
			continue
		}
		k := uint(p - 1)
		if int(k) >= nbits {
			return fmt.Errorf("%w: Rice parameter %d with %d bits", ErrBadMeta, k, nbits)
		}
		budget := uint(n * nbits)
		for j := 0; j < n; j++ {
			if rd.nacc < 32 {
				rd.refill()
			}
			u := uint(bits.TrailingZeros64(rd.acc))
			zeros := u // still to skip
			if u+1+k > rd.nacc {
				// A long run, or the stream's last bits: walk it.
				var ok bool
				u, ok = rd.unary(budget)
				if !ok && rd.nacc == 0 {
					return truncated()
				}
				if rd.nacc < 1+k {
					rd.refill()
				}
				if ok && rd.nacc < 1+k {
					return truncated()
				}
				zeros = 0
			}
			if u+1+k > budget {
				return fmt.Errorf("%w: residual codes past the block's %d-bit budget", ErrBadMeta, n*nbits)
			}
			if uint64(u) > math.MaxUint32>>k {
				return fmt.Errorf("%w: residual quotient %d with Rice parameter %d", ErrBadMeta, u, k)
			}
			budget -= u + 1 + k
			rd.acc >>= zeros + 1 + k
			rd.nacc -= zeros + 1 + k
		}
	}
	if used := rd.pos - int(rd.nacc/8); used != len(stream) {
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

// block writes one block of levels q with their zigzagged residuals
// zz behind its header: Rice-coded residuals when they pack smaller
// than the raw levels, the levels otherwise.
func (w *bitWriter) block(q, zz []uint32) {
	var rawOr uint32
	for _, v := range q {
		rawOr |= v
	}
	width := bits.Len32(rawOr)
	var sum uint64
	for _, v := range zz {
		sum += uint64(v)
	}
	p, cost := 0, 0 // all residuals zero: no bits
	if sum > 0 {
		// The cheapest Rice parameter is near log2 of the mean residual:
		// cost the one below it, it and the one above.
		k := min(max(bits.Len64(sum/uint64(len(zz)))-2, 0), maxQuantBits-3)
		var c0, c1, c2 int
		for _, v := range zz {
			c0 += int(v >> k)
			c1 += int(v >> (k + 1))
			c2 += int(v >> (k + 2))
		}
		p, cost = k+1, c0+len(zz)*(1+k)
		if c := c1 + len(zz)*(2+k); c < cost {
			p, cost = k+2, c
		}
		if c := c2 + len(zz)*(3+k); c < cost {
			p, cost = k+3, c
		}
	}
	if cost >= width*len(q) {
		w.write(uint64(width), blockHeaderBits)
		for _, v := range q {
			w.write(uint64(v), width)
		}
		return
	}
	w.write(uint64(p|residualFlag), blockHeaderBits)
	if p == 0 {
		return
	}
	k := p - 1
	mask := uint64(1)<<k - 1
	for _, v := range zz {
		u := int(v >> k)
		if u+1+k <= 32 {
			w.write(1<<u|(uint64(v)&mask)<<(u+1), u+1+k)
			continue
		}
		for ; u >= 32; u -= 32 {
			w.write(0, 32)
		}
		w.write(1<<u, u+1)
		w.write(uint64(v)&mask, k)
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
// dst, and reports whether they are zigzagged residuals.
func (r *bitReader) block(dst []uint32) (residual bool) {
	h := r.take(blockHeaderBits)
	p := uint(h &^ residualFlag)
	if h&residualFlag == 0 {
		r.raw(dst, p)
		return false
	}
	if p == 0 {
		clear(dst)
		return true
	}
	k := p - 1
	mask := uint64(1)<<k - 1
	for j := range dst {
		if r.nacc < 32 {
			r.refill()
		}
		// Most codes lie within the bits held: one count and one shift.
		if tz := uint(bits.TrailingZeros64(r.acc)); tz+1+k <= r.nacc {
			dst[j] = uint32(tz<<k | uint(r.acc>>(tz+1)&mask))
			r.acc >>= tz + 1 + k
			r.nacc -= tz + 1 + k
			continue
		}
		u, _ := r.unary(math.MaxUint32)
		r.acc >>= 1
		r.nacc--
		dst[j] = uint32(u<<k | uint(r.take(k)))
	}
	return true
}

// unary counts the zeros before the next one bit, leaving that bit
// next, and reports false when the run passes limit zeros or the
// stream ends first.
func (r *bitReader) unary(limit uint) (u uint, ok bool) {
	for {
		if r.nacc == 0 {
			if r.refill(); r.nacc == 0 {
				return u, false
			}
		}
		tz := min(uint(bits.TrailingZeros64(r.acc)), r.nacc)
		if u += tz; u > limit {
			return u, false
		}
		r.acc >>= tz
		if r.nacc -= tz; r.nacc > 0 {
			return u, true
		}
	}
}

// raw reads len(dst) values of width bits each into dst.
func (r *bitReader) raw(dst []uint32, width uint) {
	if width == 0 {
		clear(dst)
		return
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
