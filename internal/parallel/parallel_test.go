package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).workers < 1 {
		t.Fatal("pool width must be >= 1")
	}
	if got := New(3).workers; got != 3 {
		t.Fatalf("width = %d, want 3", got)
	}
}

func TestForBlocksCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 5, 100, 101} {
			seen := make([]int32, n)
			var calls int32
			p.ForBlocks(n, func(b, lo, hi int) {
				atomic.AddInt32(&calls, 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
			if want := int32(p.Blocks(n)); calls != want {
				t.Fatalf("workers=%d n=%d: %d blocks, want %d", workers, n, calls, want)
			}
		}
	}
}

func TestForBlocksPartitionDeterministic(t *testing.T) {
	p := New(4)
	record := func() map[int][2]int {
		var mu sync.Mutex
		out := make(map[int][2]int)
		p.ForBlocks(103, func(b, lo, hi int) {
			mu.Lock()
			out[b] = [2]int{lo, hi}
			mu.Unlock()
		})
		return out
	}
	a, b := record(), record()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("block %d bounds changed between runs: %v vs %v", k, v, b[k])
		}
	}
}

func TestForChunksWidthIndependentPartition(t *testing.T) {
	const n, chunk = 1000, 64
	collect := func(workers int) map[int][2]int {
		var mu sync.Mutex
		out := make(map[int][2]int)
		New(workers).ForChunks(n, chunk, func(c, lo, hi int) {
			mu.Lock()
			out[c] = [2]int{lo, hi}
			mu.Unlock()
		})
		return out
	}
	one, eight := collect(1), collect(8)
	if len(one) != len(eight) {
		t.Fatalf("chunk count differs by width: %d vs %d", len(one), len(eight))
	}
	for c, v := range one {
		if eight[c] != v {
			t.Fatalf("chunk %d bounds differ by width: %v vs %v", c, v, eight[c])
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
	New(2).ForChunks(0, 16, func(c, lo, hi int) { called = true })
	if called {
		t.Fatal("ForChunks(0) must not call fn")
	}
	var calls int32
	New(2).ForChunks(10, 0, func(c, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 10 {
			t.Fatalf("degenerate chunk size: got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("chunk<1 should mean one chunk, got %d", calls)
	}
}
