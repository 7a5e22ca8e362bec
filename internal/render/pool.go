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
//
// Unlike a sync.Pool the idle list never drops a frame at a
// collection (nor, under -race, at random), so a run's allocation does
// not depend on how many collections fall inside it; it holds at most
// as many frames as were ever outstanding at once in the process.
var (
	imgIdle struct {
		sync.Mutex
		list []*Image
	}
	imgOutstanding atomic.Int64
)

// GetImage returns a transparent (zeroed) framebuffer, reusing an idle
// buffer when the most recently recycled one has sufficient capacity.
func GetImage(w, h int) *Image {
	imgOutstanding.Add(1)
	n := 4 * w * h
	if im := popIdleImage(); im != nil && cap(im.Pix) >= n {
		im.W, im.H = w, h
		im.Pix = im.Pix[:n]
		clear(im.Pix)
		return im
	}
	return &Image{W: w, H: h, Pix: make([]float64, n)}
}

func popIdleImage() *Image {
	imgIdle.Lock()
	defer imgIdle.Unlock()
	n := len(imgIdle.list)
	if n == 0 {
		return nil
	}
	im := imgIdle.list[n-1]
	imgIdle.list[n-1] = nil
	imgIdle.list = imgIdle.list[:n-1]
	return im
}

// PutImage recycles a framebuffer. The caller must not use im
// afterwards, and must not Put the same image twice.
func PutImage(im *Image) {
	if im == nil {
		return
	}
	imgOutstanding.Add(-1)
	imgIdle.Lock()
	imgIdle.list = append(imgIdle.list, im)
	imgIdle.Unlock()
}

// ImagesOutstanding returns GetImage calls minus PutImage calls — the
// number of pool-tracked frames currently alive. Leak regression tests
// snapshot it around a run and require a zero delta.
func ImagesOutstanding() int64 { return imgOutstanding.Load() }
