package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs fn with GOMAXPROCS set to procs and restores it.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestForChunksCoversExactly(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		withProcs(procs, func() {
			for _, n := range []int{0, 1, 2, 5, 100, 101} {
				for _, chunk := range []int{1, 7, 64} {
					seen := make([]int32, n)
					var calls int32
					ForChunks(n, chunk, func(c, lo, hi int) {
						atomic.AddInt32(&calls, 1)
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&seen[i], 1)
						}
					})
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("procs=%d n=%d chunk=%d: index %d visited %d times", procs, n, chunk, i, c)
						}
					}
					if want := int32((n + chunk - 1) / chunk); calls != want {
						t.Fatalf("procs=%d n=%d chunk=%d: %d chunks, want %d", procs, n, chunk, calls, want)
					}
				}
			}
		})
	}
}

// TestForChunksWidthFollowsGOMAXPROCS: the loop reads GOMAXPROCS at
// each call, so at one the chunks run in order on the calling
// goroutine, and at k no more than k chunks are ever in flight.
func TestForChunksWidthFollowsGOMAXPROCS(t *testing.T) {
	withProcs(1, func() {
		var order []int
		ForChunks(10, 3, func(c, lo, hi int) { order = append(order, c) })
		for i, c := range order {
			if c != i {
				t.Fatalf("GOMAXPROCS 1: chunks ran in order %v", order)
			}
		}
	})
	withProcs(2, func() {
		var inFlight, peak int32
		ForChunks(64, 1, func(c, lo, hi int) {
			n := atomic.AddInt32(&inFlight, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			runtime.Gosched()
			atomic.AddInt32(&inFlight, -1)
		})
		if peak > 2 {
			t.Fatalf("GOMAXPROCS 2: %d chunks in flight at once", peak)
		}
	})
}

func TestForChunksWidthIndependentPartition(t *testing.T) {
	const n, chunk = 1000, 64
	collect := func(procs int) map[int][2]int {
		var mu sync.Mutex
		out := make(map[int][2]int)
		withProcs(procs, func() {
			ForChunks(n, chunk, func(c, lo, hi int) {
				mu.Lock()
				out[c] = [2]int{lo, hi}
				mu.Unlock()
			})
		})
		return out
	}
	one, four := collect(1), collect(4)
	if len(one) != len(four) {
		t.Fatalf("chunk count differs by width: %d vs %d", len(one), len(four))
	}
	for c, v := range one {
		if four[c] != v {
			t.Fatalf("chunk %d bounds differ by width: %v vs %v", c, v, four[c])
		}
	}
	// Chunks tile [0, n).
	covered := 0
	for _, v := range one {
		covered += v[1] - v[0]
	}
	if covered != n {
		t.Fatalf("chunks cover %d of %d items", covered, n)
	}
}

func TestForChunksZeroAndDegenerate(t *testing.T) {
	called := false
	ForChunks(0, 16, func(c, lo, hi int) { called = true })
	if called {
		t.Fatal("ForChunks(0) must not call fn")
	}
	var calls int32
	ForChunks(10, 0, func(c, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 10 {
			t.Errorf("degenerate chunk size: got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("chunk<1 should mean one chunk, got %d", calls)
	}
}
