package dataspaces

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/netsim"
)

func newService(t *testing.T, servers int) *Service {
	t.Helper()
	f := dart.NewFabric(netsim.New(netsim.Gemini()))
	s, err := New(f, servers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutQuery(t *testing.T) {
	s := newService(t, 4)
	d1 := Descriptor{Name: "subtree", Version: 3, Rank: 0}
	d2 := Descriptor{Name: "subtree", Version: 3, Rank: 1}
	s.Put(d1)
	s.Put(d2)
	if len(s.TakeT("", "subtree", 4)) != 0 {
		t.Fatal("wrong version must return nothing")
	}
	if len(s.TakeT("", "other", 3)) != 0 {
		t.Fatal("wrong name must return nothing")
	}
	got := s.TakeT("", "subtree", 3)
	if len(got) != 2 || got[0] != d1 || got[1] != d2 {
		t.Fatalf("want [%+v %+v] in registration order, got %+v", d1, d2, got)
	}
}

// TestRemove: TakeT removes what it returns, and a recycled slice is
// what the next key's Put fills.
func TestRemove(t *testing.T) {
	s := newService(t, 2)
	s.Put(Descriptor{Name: "T", Version: 1})
	got := s.TakeT("", "T", 1)
	if len(got) != 1 {
		t.Fatalf("want 1 descriptor, got %d", len(got))
	}
	if len(s.TakeT("", "T", 1)) != 0 {
		t.Fatal("descriptors must be gone after take")
	}
	s.RecycleInputs(got)
	if got[:1][0] != (Descriptor{}) {
		t.Fatal("a recycled slice must hold no descriptor")
	}
	s.Put(Descriptor{Name: "T", Version: 2})
	if next := s.TakeT("", "T", 2); &next[0] != &got[:1][0] {
		t.Fatal("Put did not reuse the recycled slice")
	}
}

func TestTaskQueueFCFS(t *testing.T) {
	s := newService(t, 1)
	// Submit three tasks with no buckets waiting.
	for step := 1; step <= 3; step++ {
		if _, err := s.SubmitSpec(TaskSpec{Analysis: "topology", Step: step}); err != nil {
			t.Fatal(err)
		}
	}
	if s.QueueDepth() != 3 {
		t.Fatalf("queue depth: want 3, got %d", s.QueueDepth())
	}
	// Tasks come out in submission order.
	for step := 1; step <= 3; step++ {
		task, err := s.BucketReadyCancel(nil)
		if err != nil {
			t.Fatal(err)
		}
		if task.Step != step {
			t.Fatalf("FCFS violated: want step %d, got %d", step, task.Step)
		}
	}
	if s.Assigned() != 3 {
		t.Fatalf("assigned count: want 3, got %d", s.Assigned())
	}
	// Interleaved submits and takes keep the order while the queue
	// reuses its array: a take advances the head, and a submit into a
	// full array slides the queued tasks down first.
	submitted, taken := 3, 3
	for round := range 30 {
		for range round%4 + 1 {
			submitted++
			if _, err := s.SubmitSpec(TaskSpec{Analysis: "topology", Step: submitted}); err != nil {
				t.Fatal(err)
			}
		}
		for range round%5 + 1 {
			if taken == submitted {
				break
			}
			taken++
			if task, err := s.BucketReadyCancel(nil); err != nil || task.Step != taken {
				t.Fatalf("round %d: FCFS violated: want step %d, got %d (err %v)", round, taken, task.Step, err)
			}
		}
	}
}

func TestBucketReadyBlocksUntilTask(t *testing.T) {
	s := newService(t, 1)
	got := make(chan Task, 1)
	go func() {
		task, err := s.BucketReadyCancel(nil)
		if err == nil {
			got <- task
		}
	}()
	// Give the bucket time to register as free.
	for i := 0; i < 100 && s.FreeBuckets() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.FreeBuckets() != 1 {
		t.Fatal("bucket should be on the free list")
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "stats", Step: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case task := <-got:
		if task.Step != 9 {
			t.Fatalf("wrong task delivered: %+v", task)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiting bucket never received the task")
	}
}

// TestPutReplacesSameRank: re-registering a (Name, Version, Rank)
// descriptor — the journal-replay case — replaces the stale handle
// instead of doubling the task's inputs.
func TestPutReplacesSameRank(t *testing.T) {
	s := newService(t, 2)
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 0, Handle: dart.MemHandle{Region: 1}})
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 1, Handle: dart.MemHandle{Region: 2}})
	// Replay of rank 0's registration with a new handle.
	s.Put(Descriptor{Name: "viz", Version: 7, Rank: 0, Handle: dart.MemHandle{Region: 3}})
	got := s.TakeT("", "viz", 7)
	if len(got) != 2 {
		t.Fatalf("want 2 descriptors after replayed Put, got %d", len(got))
	}
	for _, d := range got {
		if d.Rank == 0 && d.Handle.Region != 3 {
			t.Fatalf("rank 0 descriptor not replaced: %+v", d)
		}
	}
}

func TestCloseUnblocksBuckets(t *testing.T) {
	s := newService(t, 1)
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.BucketReadyCancel(nil)
			errs <- err
		}()
	}
	for i := 0; i < 100 && s.FreeBuckets() < 3; i++ {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != ErrClosed {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	}
	if _, err := s.SubmitSpec(TaskSpec{Analysis: "x", Step: 1}); err != ErrClosed {
		t.Fatalf("submit after close: want ErrClosed, got %v", err)
	}
	if _, err := s.BucketReadyCancel(nil); err != ErrClosed {
		t.Fatalf("bucket-ready after close: want ErrClosed, got %v", err)
	}
	s.Close() // idempotent
}

func TestServerSharding(t *testing.T) {
	s := newService(t, 8)
	// Many distinct keys should spread across shards.
	for v := 0; v < 400; v++ {
		s.Put(Descriptor{Name: fmt.Sprintf("var-%d", v%10), Version: v})
	}
	nonEmpty, total := 0, 0
	for _, sv := range s.servers {
		if len(sv.index) > 0 {
			nonEmpty++
		}
		total += len(sv.index)
	}
	if total != 400 {
		t.Fatalf("key total: want 400, got %d", total)
	}
	if nonEmpty < 6 {
		t.Fatalf("hashing should spread load over most of 8 servers, hit %d", nonEmpty)
	}
	// Balance: no server should hold more than half the keys.
	for i, sv := range s.servers {
		if len(sv.index) > 200 {
			t.Fatalf("server %d is a hotspot with %d of 400 keys", i, len(sv.index))
		}
	}
}

// TestShardPlacementPinned: shard hashes the bytes the fmt form
// "tenant/name/version" (no tenant prefix for a tenant-less key) wrote,
// so a key lands on the same server it always did. Random keys include
// negative versions, empty names and long tenants.
func TestShardPlacementPinned(t *testing.T) {
	s := newService(t, 7)
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		k := key{name: word(), version: rng.Intn(1<<20) - 1<<19}
		if i%2 == 0 {
			k.tenant = word()
		}
		h := fnv.New32a()
		if k.tenant != "" {
			fmt.Fprintf(h, "%s/", k.tenant)
		}
		fmt.Fprintf(h, "%s/%d", k.name, k.version)
		if want := s.servers[int(h.Sum32())%len(s.servers)]; s.shard(k) != want {
			t.Fatalf("key %+v moved shard", k)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.shard(key{tenant: "alpha", name: "subtree", version: 42}) }); n != 0 {
		t.Errorf("shard allocates %.0f objects per call, want 0", n)
	}
}

func TestSameKeySameShard(t *testing.T) {
	s := newService(t, 8)
	s.Put(Descriptor{Name: "T", Version: 5, Rank: 0})
	s.Put(Descriptor{Name: "T", Version: 5, Rank: 1})
	// Both descriptors must be retrievable together (same shard).
	if got := s.TakeT("", "T", 5); len(got) != 2 {
		t.Fatalf("want 2, got %d", len(got))
	}
}

func TestNewValidation(t *testing.T) {
	f := dart.NewFabric(netsim.New(netsim.Gemini()))
	if _, err := New(f, 0); err == nil {
		t.Fatal("zero servers must error")
	}
}

func TestNilFabricAllowed(t *testing.T) {
	s, err := New(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(Descriptor{Name: "x", Version: 1}) // must not panic on rpcCost
	if len(s.TakeT("", "x", 1)) != 1 {
		t.Fatal("query failed without fabric")
	}
}

func TestConcurrentSubmitAndPull(t *testing.T) {
	s := newService(t, 4)
	const tasks = 200
	var wg sync.WaitGroup
	seen := make(chan int64, tasks)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, err := s.BucketReadyCancel(nil)
				if err != nil {
					return
				}
				seen <- task.ID
			}
		}()
	}
	for i := 0; i < tasks; i++ {
		if _, err := s.SubmitSpec(TaskSpec{Analysis: "a", Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int64]bool)
	for i := 0; i < tasks; i++ {
		select {
		case id := <-seen:
			if got[id] {
				t.Fatalf("task %d delivered twice", id)
			}
			got[id] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d tasks", i)
		}
	}
	s.Close()
	wg.Wait()
}
