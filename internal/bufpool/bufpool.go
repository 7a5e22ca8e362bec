// Package bufpool is the size-classed, sync.Pool-backed byte-buffer
// pool threaded through the hybrid framework's transfer path: field
// and model marshaling, BP packing, DART Get staging copies, and
// the staging buckets' input fills. Every hop of the in-situ →
// in-transit path used to allocate a fresh buffer per timestep; with
// the pool, steady-state timesteps recycle the same few buffers.
//
// Ownership rule (documented in DESIGN.md): a buffer obtained from
// Get is owned by the caller until it is handed to Put, after which it
// must not be touched. Put never requires a Get-obtained buffer —
// foreign slices are adopted into the matching size class — and Get
// returns buffers with arbitrary contents, so callers must fully
// overwrite the range they use.
package bufpool

import (
	"math/bits"
	"sync"
)

// Size classes are powers of two from 1<<minShift up to 1<<maxShift.
// Requests above the largest class are allocated directly and dropped
// on Put (they would pin too much memory in the pool).
const (
	minShift = 8  // 256 B
	maxShift = 26 // 64 MiB
)

var classes [maxShift - minShift + 1]sync.Pool

// classFor returns the class index whose buffers have capacity >= n,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	s := bits.Len(uint(n - 1)) // ceil(log2(n))
	if s > maxShift {
		return -1
	}
	return s - minShift
}

// Get returns a buffer of length n with arbitrary contents. The
// capacity may exceed n. Small and huge requests are still served;
// only classes within [256 B, 64 MiB] actually recycle.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		w := v.(*buf)
		b := w.b
		w.b = nil
		wrapPool.Put(w)
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// buf wraps a slice so pooled values are pointer-shaped (avoids an
// allocation per Put from interface conversion of a slice header).
type buf struct{ b []byte }

var wrapPool = sync.Pool{New: func() any { return new(buf) }}

// Put returns a buffer to the pool. The buffer is placed in the
// largest class it can fully serve; buffers smaller than the smallest
// class or larger than the largest are dropped. The caller must not
// use b afterwards.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift {
		return
	}
	s := bits.Len(uint(c)) - 1 // floor(log2(cap))
	if s > maxShift {
		s = maxShift
	}
	w := wrapPool.Get().(*buf)
	w.b = b[:0:c]
	classes[s-minShift].Put(w)
}
