package codec

import (
	"encoding/binary"
	"fmt"

	"insitu/internal/bufpool"
)

// The delta codec encodes a payload against the stream's (analysis
// route × rank) newest retained version, an exact base in the
// registry's base store. The transform is three cheap passes:
//
//  1. XOR against the base — successive timesteps of a smoothly
//     evolving field agree in their float64 sign/exponent/high-mantissa
//     bytes, so the XOR is mostly zeros in the high byte lanes.
//  2. Byte-plane shuffle (stride-8 transpose, the Blosc/HDF5 shuffle
//     trick) — the mostly-zero high-byte lanes of every float are
//     gathered into long contiguous zero runs.
//  3. Zero-run RLE — alternating (zero-run, literal-run) tokens with
//     varint lengths.
//
// Reconstruction is bit-exact. When no usable base exists (first
// version, evicted base, a quantized previous version, or a shaped
// payload whose size changed) or the frame would not be smaller than
// the payload, the encode ships raw (identity).
//
// Delta metadata is the stream fields alone, always naming a base.
//
// The raw payload is always retained as the base for the next version
// — the producer is sequential per stream, so the base is resident
// before any consumer can decode against it.
func (r *Registry) encodeDelta(key string, version int, raw []byte) Result {
	n := len(raw)
	metaLen := streamMetaLen(key)
	bodyOff := headerSize + metaLen
	// The largest body a frame smaller than the payload can carry.
	bodyCap := n - bodyOff - 1
	var frame []byte
	if bodyCap > 0 {
		sh := bufpool.Get(n)
		haveBase := false
		baseVersion := r.bases.newestBelow(key, version, func(e *storeEntry) {
			if !e.levels && len(e.buf) == n {
				xorShuffle(sh, raw, e.buf)
				haveBase = true
			}
		})
		if haveBase {
			frame = newFrame(Delta, n, metaLen, bodyCap)
			if m, ok := rleEncodeZero(frame[bodyOff:bodyOff+bodyCap], sh); ok {
				putStreamMeta(frame[headerSize:bodyOff], baseVersion, key)
				frame = frame[:bodyOff+m]
			} else {
				bufpool.Put(frame)
				frame = nil
			}
		}
		bufpool.Put(sh)
	}
	r.bases.putExact(key, version, raw)
	return Result{Frame: frame}
}

func (r *Registry) decodeDelta(rawSize int, meta, body []byte) ([]byte, error) {
	key, baseVersion, ok, rest, err := parseStreamMeta(meta)
	if err != nil {
		return nil, err
	}
	if !ok || len(rest) != 0 {
		return nil, fmt.Errorf("%w: delta frame without a base or with %d extra meta bytes", ErrBadMeta, len(rest))
	}
	// The header's raw size is outside input: allocate for it only once
	// the named base is resident at that size, which bounds it by a
	// payload this process holds. (The base may still be evicted before
	// the XOR below, which then reports ErrNoBase too.)
	resident := false
	r.bases.with(string(key), baseVersion, func(e *storeEntry) { resident = !e.levels && len(e.buf) == rawSize })
	if !resident {
		return nil, fmt.Errorf("%w: %s@%d", ErrNoBase, key, baseVersion)
	}
	sh := bufpool.Get(rawSize)
	if err := rleDecodeZero(sh, body); err != nil {
		bufpool.Put(sh)
		return nil, err
	}
	raw := bufpool.Get(rawSize)
	reconstructed := false
	r.bases.with(string(key), baseVersion, func(e *storeEntry) {
		if e.levels || len(e.buf) != rawSize {
			return
		}
		unshuffleXOR(raw, sh, e.buf)
		reconstructed = true
	})
	bufpool.Put(sh)
	if !reconstructed {
		bufpool.Put(raw)
		return nil, fmt.Errorf("%w: %s@%d", ErrNoBase, key, baseVersion)
	}
	return raw, nil
}

// xorShuffle writes the byte-plane-shuffled XOR of a and b into dst:
// plane p of every 8-byte word is gathered contiguously, tail bytes
// (len not divisible by 8) follow verbatim.
func xorShuffle(dst, a, b []byte) {
	w := len(a) / 8
	for p := 0; p < 8; p++ {
		lane := dst[p*w : (p+1)*w]
		for i := range lane {
			lane[i] = a[i*8+p] ^ b[i*8+p]
		}
	}
	for i := 8 * w; i < len(a); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// unshuffleXOR inverts xorShuffle: dst = unshuffle(enc) XOR base.
func unshuffleXOR(dst, enc, base []byte) {
	w := len(dst) / 8
	for p := 0; p < 8; p++ {
		lane := enc[p*w : (p+1)*w]
		for i := range lane {
			dst[i*8+p] = lane[i] ^ base[i*8+p]
		}
	}
	for i := 8 * w; i < len(dst); i++ {
		dst[i] = enc[i] ^ base[i]
	}
}

// rleEncodeZero writes alternating (zero-run, literal-run) tokens —
// each a uvarint length, literals followed by their bytes — into dst.
// It reports the encoded length and whether src fit within len(dst)
// (when it does not, the caller ships the payload raw instead).
func rleEncodeZero(dst, src []byte) (int, bool) {
	out := 0
	i := 0
	for i < len(src) {
		z := i
		for z < len(src) && src[z] == 0 {
			z++
		}
		// Literal run: up to (not including) the next zero run worth
		// encoding. Lone zeros inside literals are cheaper kept literal
		// than paying two fresh varints, so a literal run only breaks at
		// a run of >= 4 zeros or the end of input.
		l := z
		for l < len(src) {
			if src[l] == 0 {
				zl := l + 1
				for zl < len(src) && src[zl] == 0 {
					zl++
				}
				if zl-l >= 4 {
					break
				}
				l = zl
			} else {
				l++
			}
		}
		if out+2*binary.MaxVarintLen32+(l-z) > len(dst) {
			return 0, false
		}
		out += binary.PutUvarint(dst[out:], uint64(z-i))
		out += binary.PutUvarint(dst[out:], uint64(l-z))
		copy(dst[out:], src[z:l])
		out += l - z
		i = l
	}
	return out, true
}

// rleDecodeZero reconstructs exactly len(dst) bytes from rleEncodeZero
// output, failing with typed errors on any inconsistency.
func rleDecodeZero(dst, src []byte) error {
	out := 0
	i := 0
	for i < len(src) {
		z, n := binary.Uvarint(src[i:])
		if n <= 0 {
			return fmt.Errorf("%w: bad zero-run varint", ErrTruncated)
		}
		i += n
		l, n := binary.Uvarint(src[i:])
		if n <= 0 {
			return fmt.Errorf("%w: bad literal-run varint", ErrTruncated)
		}
		i += n
		if z > uint64(len(dst)-out) || l > uint64(len(dst)-out)-z {
			return fmt.Errorf("%w: runs overflow raw size", ErrSizeMismatch)
		}
		zero := dst[out : out+int(z)]
		for j := range zero {
			zero[j] = 0
		}
		out += int(z)
		if int(l) > len(src)-i {
			return fmt.Errorf("%w: literal run past frame end", ErrTruncated)
		}
		copy(dst[out:], src[i:i+int(l)])
		out += int(l)
		i += int(l)
	}
	if out != len(dst) {
		return fmt.Errorf("%w: decoded %d of %d bytes", ErrSizeMismatch, out, len(dst))
	}
	return nil
}
