package render

import (
	"sync"
	"sync/atomic"
)

// Framebuffer pool: every render allocates its *Image here, so
// steady-state timesteps reuse the same float buffers instead of
// allocating W×H×4 float64s per partial frame per rank per step.
//
// Ownership rule (the same linear rule as bufpool): an image obtained
// from GetImage is owned by its holder until handed to PutImage, after
// which it must not be touched. Every frame a pipeline run renders is
// Put exactly once: the run hands it to its frame sink, then recycles
// it, and ImagesOutstanding lets leak gates assert that the Get/Put
// ledger balances.
var (
	imgPool        sync.Pool
	imgOutstanding atomic.Int64
)

// GetImage returns a transparent (zeroed) framebuffer, reusing a
// pooled buffer when one of sufficient capacity is available.
func GetImage(w, h int) *Image {
	imgOutstanding.Add(1)
	n := 4 * w * h
	if v := imgPool.Get(); v != nil {
		im := v.(*Image)
		if cap(im.Pix) >= n {
			im.W, im.H = w, h
			im.Pix = im.Pix[:n]
			clear(im.Pix)
			return im
		}
	}
	return &Image{W: w, H: h, Pix: make([]float64, n)}
}

// PutImage recycles a framebuffer. The caller must not use im
// afterwards, and must not Put the same image twice.
func PutImage(im *Image) {
	if im == nil {
		return
	}
	imgOutstanding.Add(-1)
	imgPool.Put(im)
}

// ImagesOutstanding returns GetImage calls minus PutImage calls — the
// number of pool-tracked frames currently alive. Leak regression tests
// snapshot it around a run and require a zero delta.
func ImagesOutstanding() int64 { return imgOutstanding.Load() }
