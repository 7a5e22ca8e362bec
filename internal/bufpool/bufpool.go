// Package bufpool holds the process's one recycling mechanism, List, a
// free list no collection empties, and on it the size-classed byte
// pool threaded through the hybrid framework's transfer path: field and
// model marshaling, BP packing, DART Get staging copies, and the
// staging buckets' input fills. Steady-state timesteps recycle the same
// few buffers instead of allocating one per hop.
//
// Ownership rule (documented in DESIGN.md): a buffer obtained from
// Get is owned by the caller until it is handed to Put, after which it
// must not be touched. Put adopts foreign slices too, but a class never
// holds more idle buffers than Get has allocated for it. Get returns
// buffers with arbitrary contents, so callers must fully overwrite the
// range they use.
package bufpool

import (
	"math/bits"
	"sync"
)

// List is a mutex-guarded stack of idle values. Unlike a sync.Pool it
// never drops one at a collection (nor, under -race, at random), so a
// run's allocation does not depend on how many collections fall inside
// it. It holds at most as many idle values as Get has missed on: the
// peak set ever in use at once. The zero List is empty.
type List[T any] struct {
	mu   sync.Mutex
	idle []T
	made int // Gets that found the list empty
}

// Get pops the most recently put value, or returns T's zero value when
// none is idle; the caller then allocates one.
func (l *List[T]) Get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	n := len(l.idle)
	if n == 0 {
		l.made++
		return v
	}
	v, l.idle[n-1] = l.idle[n-1], v
	l.idle = l.idle[:n-1]
	return v
}

// Put pushes v for the next Get, or leaves it to the collector when
// the list already holds as many idle values as Get has missed on.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	if len(l.idle) < l.made {
		l.idle = append(l.idle, v)
	}
	l.mu.Unlock()
}

// Size classes are powers of two from 1<<minShift up to 1<<maxShift.
// Requests above the largest class are allocated directly and dropped
// on Put (they would pin too much memory in the pool).
const (
	minShift = 8  // 256 B
	maxShift = 26 // 64 MiB
)

var classes [maxShift - minShift + 1]List[[]byte]

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
	if b := classes[c].Get(); b != nil {
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put returns a buffer to the largest class it can fully serve, within
// the class's bound; buffers smaller than the smallest class or larger
// than the largest are dropped. The caller must not use b afterwards.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c > 1<<maxShift {
		return
	}
	classes[bits.Len(uint(c))-1-minShift].Put(b[:0:c]) // floor(log2(cap))
}
