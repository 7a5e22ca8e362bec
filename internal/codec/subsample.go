package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"insitu/internal/bufpool"
)

// The subsample codec ships a coarse version of the float tail —
// every Stride-th value, reconstructed by sample-and-hold — so the
// time-critical pull moves 1/Stride of the floats. The encode reports
// the sample-and-hold reconstruction error so the fidelity loss is
// observable.
//
// Subsample metadata:
//
//	[0]    stride (1..255)
//	[1:5]  float-tail offset, uint32
//	[5:7]  key length, uint16
//	[7:]   key bytes
func subMetaLen(key string) int { return 1 + 4 + 2 + len(key) }

func encodeSubsample(spec Spec, key string, version int, raw []byte, floatOff int) (Result, error) {
	count, err := checkTail(raw, floatOff)
	if err != nil {
		return Result{}, err
	}
	stride := spec.Stride
	if stride <= 0 {
		stride = DefaultStride
	}
	if stride > 255 {
		stride = 255
	}
	if count == 0 || stride == 1 {
		// Nothing to coarsen: ship raw unframed.
		return Result{}, nil
	}
	coarse := (count + stride - 1) / stride
	metaLen := subMetaLen(key)
	frame := newFrame(Subsample, len(raw), metaLen, floatOff+8*coarse)
	meta := frame[headerSize : headerSize+metaLen]
	meta[0] = byte(stride)
	binary.LittleEndian.PutUint32(meta[1:5], uint32(floatOff))
	binary.LittleEndian.PutUint16(meta[5:7], uint16(len(key)))
	copy(meta[7:], key)
	body := frame[headerSize+metaLen:]
	copy(body, raw[:floatOff])
	maxErr := 0.0
	for i := 0; i < count; i++ {
		anchor := (i / stride) * stride
		word := binary.LittleEndian.Uint64(raw[floatOff+8*i:])
		if i == anchor {
			binary.LittleEndian.PutUint64(body[floatOff+8*(i/stride):], word)
			continue
		}
		held := binary.LittleEndian.Uint64(raw[floatOff+8*anchor:])
		e := math.Abs(math.Float64frombits(word) - math.Float64frombits(held))
		if e > maxErr || math.IsNaN(e) {
			maxErr = e
		}
	}
	return Result{Frame: frame[:headerSize+metaLen+floatOff+8*coarse], MaxError: maxErr}, nil
}

func decodeSubsample(rawSize int, meta, body []byte) ([]byte, error) {
	if len(meta) < 7 {
		return nil, fmt.Errorf("%w: subsample meta %d bytes", ErrBadMeta, len(meta))
	}
	stride := int(meta[0])
	floatOff := int(binary.LittleEndian.Uint32(meta[1:5]))
	keyLen := int(binary.LittleEndian.Uint16(meta[5:7]))
	if len(meta) != 7+keyLen {
		return nil, fmt.Errorf("%w: subsample key %d bytes in %d-byte meta", ErrBadMeta, keyLen, len(meta))
	}
	if stride < 2 {
		return nil, fmt.Errorf("%w: subsample stride %d", ErrBadMeta, stride)
	}
	if floatOff < 0 || floatOff > rawSize || (rawSize-floatOff)%8 != 0 {
		return nil, fmt.Errorf("%w: float tail at %d of raw %d", ErrBadMeta, floatOff, rawSize)
	}
	count := (rawSize - floatOff) / 8
	coarse := (count + stride - 1) / stride
	if len(body) != floatOff+8*coarse {
		return nil, fmt.Errorf("%w: coarse body %d bytes, want %d", ErrTruncated, len(body), floatOff+8*coarse)
	}
	raw := bufpool.Get(rawSize)
	copy(raw, body[:floatOff])
	for i := 0; i < count; i++ {
		word := binary.LittleEndian.Uint64(body[floatOff+8*(i/stride):])
		binary.LittleEndian.PutUint64(raw[floatOff+8*i:], word)
	}
	return raw, nil
}
