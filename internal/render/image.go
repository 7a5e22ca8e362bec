// Package render implements the paper's two visualization algorithms:
// a fully in-situ parallel volume renderer (each rank ray-casts its
// full-resolution block; partial images composite in visibility order)
// and a hybrid in-situ/in-transit renderer (each rank down-samples its
// block in-situ; a single serial in-transit process assembles a block
// lookup table recording the upper and lower bounds of each block and
// ray-casts the down-sampled volume without any visibility sort or
// volume reconstruction).
package render

import (
	"fmt"
	"image/color"
	"os"
)

// Image is a float RGBA framebuffer with premultiplied alpha, the
// intermediate form partial renders composite in.
type Image struct {
	W, H int
	Pix  []float64 // 4 floats per pixel: R, G, B, A (premultiplied)
}

// NewImage allocates a transparent framebuffer.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, 4*w*h)}
}

// At returns the premultiplied RGBA at (x, y).
func (im *Image) At(x, y int) (r, g, b, a float64) {
	o := 4 * (y*im.W + x)
	return im.Pix[o], im.Pix[o+1], im.Pix[o+2], im.Pix[o+3]
}

// Set stores premultiplied RGBA at (x, y).
func (im *Image) Set(x, y int, r, g, b, a float64) {
	o := 4 * (y*im.W + x)
	im.Pix[o], im.Pix[o+1], im.Pix[o+2], im.Pix[o+3] = r, g, b, a
}

// Under composites src behind im in place (both premultiplied, same
// dimensions): im = im OVER src. Folding images front-to-back with
// Under is the standard ordered compositing step.
func (im *Image) Under(src *Image) error {
	if src.W != im.W || src.H != im.H {
		return fmt.Errorf("render: composite dimension mismatch %dx%d vs %dx%d", src.W, src.H, im.W, im.H)
	}
	for i := 0; i < len(im.Pix); i += 4 {
		da := im.Pix[i+3]
		for c := 0; c < 4; c++ {
			im.Pix[i+c] += (1 - da) * src.Pix[i+c]
		}
	}
	return nil
}

// CompositeFrontToBack folds an ordered list of partial images
// (front-most first) into one: the paper's in-situ renderer composites
// per-block images in the visibility order of their blocks.
func CompositeFrontToBack(parts []*Image) (*Image, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("render: nothing to composite")
	}
	out := GetImage(parts[0].W, parts[0].H)
	for _, p := range parts {
		if err := out.Under(p); err != nil {
			PutImage(out)
			return nil, err
		}
	}
	return out, nil
}

// nrgbaRow writes row y as opaque 8-bit RGBA over bg into dst[:4*im.W].
func (im *Image) nrgbaRow(dst []byte, y int, bg color.NRGBA) {
	br := float64(bg.R) / 255
	bgc := float64(bg.G) / 255
	bb := float64(bg.B) / 255
	for x := 0; x < im.W; x++ {
		r, g, b, a := im.At(x, y)
		r += (1 - a) * br
		g += (1 - a) * bgc
		b += (1 - a) * bb
		dst[4*x], dst[4*x+1], dst[4*x+2], dst[4*x+3] = to8(r), to8(g), to8(b), 255
	}
}

func to8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// SavePNG writes the image to path as AppendPNG encodes it.
func (im *Image) SavePNG(path string) error {
	data, err := im.AppendPNG(nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	return nil
}

// MeanAbsDiff returns the mean absolute per-channel difference between
// two images, the fidelity metric the down-sampling ablation reports.
func MeanAbsDiff(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("render: image dimension mismatch")
	}
	sum := 0.0
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a.Pix)), nil
}
