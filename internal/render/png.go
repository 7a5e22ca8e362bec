package render

import (
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"image/color"
)

// maxStored is the most bytes one stored (uncompressed) deflate block
// holds.
const maxStored = 0xffff

// AppendPNG appends the image as a PNG (8-bit RGBA over a black
// background) to dst and returns the extended slice. The
// byte layout is fully deterministic: filter type None on every
// scanline and a zlib stream of stored (uncompressed) deflate blocks.
// Unlike image/png, whose compressed output may change between Go
// releases, this encoder's bytes depend only on the pixel values — so
// the content digests the image store derives from encoded frames are
// stable across builds, re-encodes, and machines, and a re-run of a
// deterministic pipeline reproduces them bit for bit. Nothing is
// compressed, so the size is known up front: dst grows, to exactly the
// size needed, only when its capacity falls short, and a caller can
// encode frame after frame into one buffer. On an error dst is
// returned unchanged.
func (im *Image) AppendPNG(dst []byte) ([]byte, error) {
	if im.W < 1 || im.H < 1 {
		return dst, fmt.Errorf("render: cannot encode empty %dx%d image", im.W, im.H)
	}
	stride := 1 + 4*im.W // filter byte + RGBA
	raw := im.H * stride
	nBlocks := (raw + maxStored - 1) / maxStored
	idat := 2 + 5*nBlocks + raw + 4 // zlib header, block headers, scanlines, adler32
	out := dst
	if need := 8 + (12 + 13) + (12 + idat) + 12; cap(out)-len(out) < need {
		out = make([]byte, len(dst), len(dst)+need)
		copy(out, dst)
	}

	out = append(out, 137, 'P', 'N', 'G', '\r', '\n', 26, '\n')
	out, ihdr := beginChunk(out, "IHDR", 13)
	out = binary.BigEndian.AppendUint32(out, uint32(im.W))
	out = binary.BigEndian.AppendUint32(out, uint32(im.H))
	out = append(out, 8, 6, 0, 0, 0) // bit depth 8, color type RGBA, compression/filter/interlace 0
	out = endChunk(out, ihdr)

	out, data := beginChunk(out, "IDAT", idat)
	out = append(out, 0x78, 0x01) // zlib header: deflate, 32K window, no dict
	// The scanlines go down contiguously where the last block's data
	// ends, so one call checksums them; each earlier block is then moved
	// left to open the 5 bytes of the block header that follows it. A
	// frame under 64 KiB is one block and nothing moves.
	blocks := len(out)
	out = out[:blocks+5*nBlocks+raw]
	lines := out[blocks+5*nBlocks:]
	for y := 0; y < im.H; y++ {
		row := lines[y*stride : (y+1)*stride]
		row[0] = 0 // filter None
		im.nrgbaRow(row[1:], y, color.NRGBA{A: 255})
	}
	sum := adler32.Checksum(lines)
	for b := 0; b < nBlocks; b++ {
		n := min(maxStored, raw-b*maxStored)
		hdr := out[blocks+b*(5+maxStored):]
		copy(hdr[5:5+n], lines[b*maxStored:])
		final := byte(0)
		if b == nBlocks-1 {
			final = 1
		}
		hdr[0], hdr[1], hdr[2], hdr[3], hdr[4] = final, byte(n), byte(n>>8), byte(^n), byte(^n>>8)
	}
	out = binary.BigEndian.AppendUint32(out, sum)
	out = endChunk(out, data)

	out, iend := beginChunk(out, "IEND", 0)
	return endChunk(out, iend), nil
}

// beginChunk appends a PNG chunk's length and type and returns where
// the type starts — what endChunk's CRC covers from.
func beginChunk(out []byte, typ string, n int) ([]byte, int) {
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	return append(out, typ...), len(out)
}

// endChunk appends the CRC32 over the chunk's type and data.
func endChunk(out []byte, typeStart int) []byte {
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[typeStart:]))
}
