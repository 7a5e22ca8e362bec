// Package parallel provides the bounded worker pool shared by the
// in-situ analysis kernels (ray casting, local merge-tree sweeps,
// statistics accumulation) and the data-movement helpers. The paper's
// premise is that the in-situ stage must cost a vanishing fraction of
// a simulation step; on a multi-core node that requires every kernel
// to exploit all cores, not one goroutine per rank.
//
// The pool is deliberately minimal: a fixed width (defaulting to
// GOMAXPROCS) and deterministic, contiguous index partitions. Work is
// split by *position*, never by arrival order, so a kernel's output is
// a pure function of its input and the partition — the property the
// compositing and reduction layers rely on for reproducibility.
package parallel

import (
	"runtime"
	"sync"
)

// Pool is a bounded fork-join executor of fixed width. The zero value
// is not usable; use New. Pools are stateless between calls and safe
// for concurrent use from multiple goroutines (each call runs its own
// fork-join).
type Pool struct {
	workers int
}

// New returns a pool of the given width. Width < 1 selects
// GOMAXPROCS, the number of OS threads Go will actually schedule.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Default is the shared pool sized to GOMAXPROCS at package
// initialization. Kernels that take no explicit pool use it.
var Default = New(0)

// Blocks returns the number of contiguous blocks ForBlocks will split
// n items into: min(workers, n), and 0 for n <= 0.
func (p *Pool) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	if n < p.workers {
		return n
	}
	return p.workers
}

// ForBlocks partitions [0, n) into Blocks(n) contiguous ranges of
// near-equal length and calls fn(b, lo, hi) for each, concurrently
// when the pool is wider than one. Block b always covers the same
// [lo, hi) for a given (n, width): the partition is deterministic, so
// callers can reduce per-block results in block order and obtain a
// machine-schedule-independent answer. The calling goroutine executes
// block 0 itself; at most Blocks(n)-1 goroutines are spawned.
func (p *Pool) ForBlocks(n int, fn func(b, lo, hi int)) {
	nb := p.Blocks(n)
	if nb == 0 {
		return
	}
	if nb == 1 {
		fn(0, 0, n)
		return
	}
	// Contiguous split: the first n%nb blocks get one extra item.
	q, r := n/nb, n%nb
	bounds := func(b int) (lo, hi int) {
		lo = b*q + min(b, r)
		hi = lo + q
		if b < r {
			hi++
		}
		return
	}
	var wg sync.WaitGroup
	for b := 1; b < nb; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			lo, hi := bounds(b)
			fn(b, lo, hi)
		}(b)
	}
	lo, hi := bounds(0)
	fn(0, lo, hi)
	wg.Wait()
}

// ForChunks splits [0, n) into fixed-width chunks of the given size
// and calls fn(c, lo, hi) for each, running at most one chunk per
// worker concurrently. Unlike ForBlocks, the partition depends only on
// (n, chunk) — not on the pool width — so per-chunk partial results
// combined in chunk order are bitwise reproducible across machines
// with different core counts. This is the shape the statistics
// kernels use: the paper's in-situ reduction (per-chunk partial
// models, ordered pairwise Combine) made width-independent.
func (p *Pool) ForChunks(n, chunk int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = n
	}
	nc := (n + chunk - 1) / chunk
	if nc == 1 || p.workers == 1 {
		for c := 0; c < nc; c++ {
			lo := c * chunk
			hi := min(lo+chunk, n)
			fn(c, lo, hi)
		}
		return
	}
	// Workers pull chunk indices from a shared counter; assignment of
	// chunk to worker is racy but the chunk boundaries are not.
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		c := int(next)
		next++
		mu.Unlock()
		return c
	}
	nw := p.workers
	if nw > nc {
		nw = nc
	}
	var wg sync.WaitGroup
	work := func() {
		for {
			c := take()
			if c >= nc {
				return
			}
			lo := c * chunk
			hi := min(lo+chunk, n)
			fn(c, lo, hi)
		}
	}
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForChunks runs Default.ForChunks.
func ForChunks(n, chunk int, fn func(c, lo, hi int)) { Default.ForChunks(n, chunk, fn) }
