// Package parallel provides the fork-join loop shared by the in-situ
// analysis kernels (ray casting, statistics accumulation). The paper's
// premise is that the in-situ stage must cost a vanishing fraction of
// a simulation step; on a multi-core node that requires every kernel
// to exploit all cores, not one goroutine per rank.
//
// The loop is deliberately minimal: at most GOMAXPROCS workers and
// deterministic, contiguous index chunks. Work is split by *position*,
// never by arrival order, so a kernel's output is a pure function of
// its input and the chunk size — the property the compositing and
// reduction layers rely on for reproducibility.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForChunks splits [0, n) into fixed-width chunks of the given size
// and calls fn(c, lo, hi) for each, running at most GOMAXPROCS chunks
// concurrently (GOMAXPROCS is read at every call). The partition
// depends only on (n, chunk), not on the number of workers, so
// per-chunk partial results combined in chunk order are bitwise
// reproducible across machines with different core counts. This is the
// shape the statistics kernels use: the paper's in-situ reduction
// (per-chunk partial models, ordered pairwise Combine) made
// width-independent. A chunk < 1 means one chunk.
func ForChunks(n, chunk int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = n
	}
	nc := (n + chunk - 1) / chunk
	nw := min(runtime.GOMAXPROCS(0), nc)
	if nw == 1 {
		for c := 0; c < nc; c++ {
			lo := c * chunk
			fn(c, lo, min(lo+chunk, n))
		}
		return
	}
	// Workers pull chunk indices from a shared counter; assignment of
	// chunk to worker is racy but the chunk boundaries are not.
	cr := &chunkRun{n: n, chunk: chunk, chunks: nc, fn: fn}
	cr.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go cr.worker()
	}
	cr.work()
	cr.wg.Wait()
}

// chunkRun is one ForChunks call's shared state: one allocation for
// the whole fork-join.
type chunkRun struct {
	next             atomic.Int64 // the next chunk to take
	wg               sync.WaitGroup
	n, chunk, chunks int
	fn               func(c, lo, hi int)
}

// work runs chunks until none is left.
func (cr *chunkRun) work() {
	for c := int(cr.next.Add(1) - 1); c < cr.chunks; c = int(cr.next.Add(1) - 1) {
		lo := c * cr.chunk
		cr.fn(c, lo, min(lo+cr.chunk, cr.n))
	}
}

// worker is work on a spawned goroutine.
func (cr *chunkRun) worker() {
	defer cr.wg.Done()
	cr.work()
}
