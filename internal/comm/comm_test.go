package comm

import (
	"sync/atomic"
	"testing"
)

// worldSizes exercises power-of-two and awkward sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestSendRecv(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, "hello")
		} else {
			data, src := r.Recv(0, 5)
			if data.(string) != "hello" || src != 0 {
				t.Errorf("recv got %v from %d", data, src)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, "first")
			r.Send(1, 2, "second")
		} else {
			// Receive out of order by tag.
			d2, _ := r.Recv(0, 2)
			d1, _ := r.Recv(0, 1)
			if d1.(string) != "first" || d2.(string) != "second" {
				t.Errorf("tag matching broken: %v %v", d1, d2)
			}
		}
	})
}

func TestRecvWildcard(t *testing.T) {
	Run(3, func(r *Rank) {
		if r.ID() != 0 {
			r.Send(0, 9, r.ID())
			return
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, src := r.Recv(AnySource, AnyTag)
			if data.(int) != src {
				t.Errorf("payload should equal source")
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("missing sources: %v", seen)
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, n := range worldSizes {
		var before, after atomic.Int32
		Run(n, func(r *Rank) {
			before.Add(1)
			r.Barrier()
			if got := before.Load(); got != int32(n) {
				t.Errorf("n=%d: rank %d passed barrier with only %d arrivals", n, r.ID(), got)
			}
			after.Add(1)
		})
		if after.Load() != int32(n) {
			t.Fatalf("n=%d: not all ranks exited", n)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range worldSizes {
		want := n * (n - 1) / 2
		Run(n, func(r *Rank) {
			got := r.Allreduce(r.ID(), func(a, b any) any { return a.(int) + b.(int) })
			if got.(int) != want {
				t.Errorf("n=%d rank %d: allreduce sum want %d, got %v", n, r.ID(), want, got)
			}
		})
	}
}

func TestBroadcast(t *testing.T) {
	for _, n := range worldSizes {
		for _, root := range []int{0, n / 2, n - 1} {
			Run(n, func(r *Rank) {
				var val any
				if r.ID() == root {
					val = "payload"
				}
				got := r.Broadcast(root, val)
				if got.(string) != "payload" {
					t.Errorf("n=%d root=%d rank %d: broadcast got %v", n, root, r.ID(), got)
				}
			})
		}
	}
}

func TestGatherOrdering(t *testing.T) {
	for _, n := range worldSizes {
		for _, root := range []int{0, n - 1} {
			Run(n, func(r *Rank) {
				got := r.Gather(root, 10*r.ID())
				if r.ID() != root {
					if got != nil {
						t.Errorf("non-root got %v", got)
					}
					return
				}
				if len(got) != n {
					t.Errorf("gather length %d, want %d", len(got), n)
					return
				}
				for i, v := range got {
					if v.(int) != 10*i {
						t.Errorf("n=%d: gather[%d] = %v, want %d", n, i, v, 10*i)
					}
				}
			})
		}
	}
}

// TestAllreduceDeterminism checks the reduction tree is fixed: a
// non-commutative operation must give identical results across
// repeats.
func TestAllreduceDeterminism(t *testing.T) {
	concat := func(a, b any) any { return a.(string) + b.(string) }
	var first string
	for trial := 0; trial < 5; trial++ {
		var results [8]string
		Run(8, func(r *Rank) {
			results[r.ID()] = r.Allreduce(string(rune('a'+r.ID())), concat).(string)
		})
		for i := 1; i < 8; i++ {
			if results[i] != results[0] {
				t.Fatalf("allreduce inconsistent across ranks: %q vs %q", results[i], results[0])
			}
		}
		if trial == 0 {
			first = results[0]
		} else if results[0] != first {
			t.Fatalf("allreduce nondeterministic across runs: %q vs %q", results[0], first)
		}
	}
}

func TestConsecutiveCollectives(t *testing.T) {
	// Back-to-back collectives must not cross-match messages.
	Run(6, func(r *Rank) {
		for i := 0; i < 20; i++ {
			sum := r.Allreduce(1, func(a, b any) any { return a.(int) + b.(int) })
			if sum.(int) != 6 {
				t.Errorf("iteration %d: sum %v", i, sum)
				return
			}
			r.Barrier()
		}
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world must panic")
		}
	}()
	NewWorld(0)
}

func TestSendInvalidRank(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid rank must panic")
		}
	}()
	w.Rank(0).Send(3, 0, nil)
}
