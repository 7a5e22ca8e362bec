package codec

import (
	"encoding/binary"
	"fmt"

	"insitu/internal/bufpool"
)

// The delta codec encodes a payload against the previous version of
// the same producer stream (analysis route × rank), which the registry
// retains in its base store. The transform is three cheap passes:
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
// version, evicted base, or a shaped payload whose size changed) or
// the transform does not actually shrink the payload, the frame
// carries the payload verbatim in literal mode and stays
// self-contained.
//
// Delta metadata:
//
//	[0]    mode: 0 literal, 1 xor+shuffle+rle
//	[1:9]  base version, int64 (-1 in literal mode)
//	[9:11] key length, uint16
//	[11:]  key bytes
const (
	deltaLiteral = 0
	deltaXOR     = 1
)

func deltaMetaLen(key string) int { return 1 + 8 + 2 + len(key) }

func putDeltaMeta(meta []byte, mode byte, baseVersion int64, key string) {
	meta[0] = mode
	binary.LittleEndian.PutUint64(meta[1:9], uint64(baseVersion))
	binary.LittleEndian.PutUint16(meta[9:11], uint16(len(key)))
	copy(meta[11:], key)
}

func parseDeltaMeta(meta []byte) (mode byte, baseVersion int64, key []byte, err error) {
	if len(meta) < 11 {
		return 0, 0, nil, fmt.Errorf("%w: delta meta %d bytes", ErrBadMeta, len(meta))
	}
	mode = meta[0]
	if mode != deltaLiteral && mode != deltaXOR {
		return 0, 0, nil, fmt.Errorf("%w: delta mode %d", ErrBadMeta, mode)
	}
	baseVersion = int64(binary.LittleEndian.Uint64(meta[1:9]))
	keyLen := int(binary.LittleEndian.Uint16(meta[9:11]))
	if len(meta) != 11+keyLen {
		return 0, 0, nil, fmt.Errorf("%w: delta key %d bytes in %d-byte meta", ErrBadMeta, keyLen, len(meta))
	}
	return mode, baseVersion, meta[11:], nil
}

// encodeDelta never fails: absent or mismatched bases degrade to
// literal mode. The raw payload is always retained as the base for the
// next version — the producer is sequential per stream, so the base is
// resident before any consumer can decode against it.
func (r *Registry) encodeDelta(key string, version int, raw []byte) Result {
	n := len(raw)
	metaLen := deltaMetaLen(key)
	frame := newFrame(Delta, n, metaLen, n)
	bodyOff := headerSize + metaLen

	mode := byte(deltaLiteral)
	baseVersion := int64(-1)
	encLen := 0
	if n >= 8 {
		sh := bufpool.Get(n)
		haveBase := false
		r.bases.with(key, version-1, func(base []byte) {
			if len(base) != n {
				return
			}
			xorShuffle(sh, raw, base)
			haveBase = true
		})
		if haveBase {
			if m, ok := rleEncodeZero(frame[bodyOff:bodyOff+n], sh); ok {
				mode = deltaXOR
				baseVersion = int64(version - 1)
				encLen = m
			}
		}
		bufpool.Put(sh)
	}
	if mode == deltaLiteral {
		copy(frame[bodyOff:], raw)
		encLen = n
	}
	putDeltaMeta(frame[headerSize:bodyOff], mode, baseVersion, key)
	r.bases.put(key, version, raw)
	return Result{Frame: frame[:bodyOff+encLen]}
}

func (r *Registry) decodeDelta(rawSize int, meta, body []byte) ([]byte, error) {
	mode, baseVersion, key, err := parseDeltaMeta(meta)
	if err != nil {
		return nil, err
	}
	if mode == deltaLiteral {
		if len(body) != rawSize {
			return nil, fmt.Errorf("%w: literal body %d bytes, raw size %d", ErrSizeMismatch, len(body), rawSize)
		}
		raw := bufpool.Get(rawSize)
		copy(raw, body)
		return raw, nil
	}
	// The header's raw size is outside input: allocate for it only once
	// the named base is resident at that size, which bounds it by a
	// payload this process holds. (The base may still be evicted before
	// the XOR below, which then reports ErrNoBase too.)
	resident := false
	r.bases.with(string(key), int(baseVersion), func(base []byte) { resident = len(base) == rawSize })
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
	r.bases.with(string(key), int(baseVersion), func(base []byte) {
		if len(base) != rawSize {
			return
		}
		unshuffleXOR(raw, sh, base)
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
// (when it does not, the caller uses literal mode instead).
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
