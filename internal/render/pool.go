package render

import (
	"slices"
	"sync/atomic"

	"insitu/internal/bufpool"
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
//
// The idle frames wait on a bufpool.List, which no collection empties
// and which holds at most as many frames as were ever outstanding at
// once in the process.
var (
	imgIdle        bufpool.List[*Image]
	imgOutstanding atomic.Int64
)

// GetImage returns a transparent (zeroed) framebuffer, reusing the most
// recently recycled one and growing its pixels when they are too few.
func GetImage(w, h int) *Image {
	imgOutstanding.Add(1)
	im := imgIdle.Get()
	if im == nil {
		im = new(Image)
	}
	im.W, im.H = w, h
	im.Pix = slices.Grow(im.Pix[:0], 4*w*h)[:4*w*h]
	clear(im.Pix)
	return im
}

// PutImage recycles a framebuffer. The caller must not use im
// afterwards, and must not Put the same image twice.
func PutImage(im *Image) {
	if im == nil {
		return
	}
	imgOutstanding.Add(-1)
	imgIdle.Put(im)
}

// ImagesOutstanding returns GetImage calls minus PutImage calls — the
// number of pool-tracked frames currently alive. Leak regression tests
// snapshot it around a run and require a zero delta.
func ImagesOutstanding() int64 { return imgOutstanding.Load() }
