package bufpool

import (
	"runtime"
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

// A recycled buffer outlives collections: the next Get of its class
// returns the same backing array, however many collections fell in
// between, so they do not change what a run allocates.
func TestRecycleRoundTrip(t *testing.T) {
	b := Get(10_000)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	runtime.GC()
	runtime.GC()
	c := Get(10_000)
	if len(c) != 10_000 {
		t.Fatalf("len %d", len(c))
	}
	if &c[0] != &b[0] {
		t.Fatal("a recycled buffer was dropped at a collection")
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
	Put(make([]byte, 4096)) // adopted while the class has room
	b := Get(4096)
	if len(b) != 4096 {
		t.Fatal("adopted class broken")
	}
	Put(b)
}

// counts returns how many values the list holds idle and how many Gets
// found it empty.
func (l *List[T]) counts() (idle, made int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle), l.made
}

// Foreign slices never grow a class past the buffers Get allocated for
// it: the pool holds at most its peak outstanding set.
func TestForeignPutsDoNotGrowAClass(t *testing.T) {
	const size = 1 << 13
	class := &classes[classFor(size)]
	for range 50 {
		Put(make([]byte, size))
	}
	if idle, made := class.counts(); idle > made {
		t.Fatalf("after foreign puts the class holds %d idle buffers, Get allocated %d", idle, made)
	}
	held := [][]byte{Get(size), Get(size), Get(size)}
	_, made := class.counts()
	for _, b := range held {
		Put(b)
	}
	for range 50 {
		Put(make([]byte, size+size/2)) // floor class is size's
	}
	if idle, _ := class.counts(); idle != made {
		t.Fatalf("the class holds %d idle buffers, want the %d Get allocated", idle, made)
	}
	for range 3 {
		Put(Get(size))
	}
	if _, after := class.counts(); after != made {
		t.Fatalf("Get allocated %d more buffers for a class holding %d idle", after-made, made)
	}
}

// TestConcurrentDistinctBuffers hammers Get/Put from many goroutines,
// over several classes and with foreign Puts mixed in, and checks
// (under -race and by value stamping) that no two live buffers alias
// and that no class ends up holding more than Get allocated for it.
func TestConcurrentDistinctBuffers(t *testing.T) {
	const workers = 8
	const rounds = 2000
	sizes := []int{300, 1024, 5000}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stamp byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := Get(sizes[r%len(sizes)])
				for i := range b {
					b[i] = stamp
				}
				if r%7 == 0 {
					Put(make([]byte, len(b)))
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
	for _, n := range sizes {
		if idle, made := classes[classFor(n)].counts(); idle > made {
			t.Errorf("class of %d B holds %d idle buffers, Get allocated %d", n, idle, made)
		}
	}
}
