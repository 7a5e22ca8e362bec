package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 5000, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		Put(b)
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	b := Get(10_000)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	// The recycled buffer may come back on the next Get of the same
	// class. We cannot assert identity (sync.Pool may drop), but a
	// reuse must never hand the same backing array to two live
	// buffers, which the race stress test below exercises.
	c := Get(10_000)
	if len(c) != 10_000 {
		t.Fatalf("len %d", len(c))
	}
	Put(c)
}

func TestHugeAndTinyDoNotPanic(t *testing.T) {
	huge := Get(1 << 28) // above the largest class: plain allocation
	if len(huge) != 1<<28 {
		t.Fatal("huge get wrong length")
	}
	Put(huge) // dropped, must not panic
	tiny := Get(3)
	Put(tiny[:0])
}

func TestForeignBufferAdoption(t *testing.T) {
	// Put of a slice that never came from Get must be accepted.
	Put(make([]byte, 100))  // below smallest class: dropped
	Put(make([]byte, 4096)) // adopted
	b := Get(4096)
	if len(b) != 4096 {
		t.Fatal("adopted class broken")
	}
	Put(b)
}

// TestConcurrentDistinctBuffers hammers Get/Put from many goroutines
// and checks (under -race and by value stamping) that no two live
// buffers alias.
func TestConcurrentDistinctBuffers(t *testing.T) {
	const workers = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stamp byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := Get(1024)
				for i := range b {
					b[i] = stamp
				}
				for i := range b {
					if b[i] != stamp {
						t.Errorf("buffer corrupted: got %x want %x", b[i], stamp)
						return
					}
				}
				Put(b)
			}
		}(byte(w))
	}
	wg.Wait()
}
