package dataspaces

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/netsim"
)

func newTestService(t *testing.T, servers int) *Service {
	t.Helper()
	f := dart.NewFabric(netsim.New(netsim.Gemini()))
	s, err := New(f, servers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitT(t *testing.T, s *Service, tenant, analysis string, step int) {
	t.Helper()
	if _, err := s.SubmitSpec(TaskSpec{Tenant: tenant, Analysis: analysis, Step: step}); err != nil {
		t.Fatalf("submit %s/%s@%d: %v", tenant, analysis, step, err)
	}
}

// drainOrder pops n tasks and returns their tenants in dequeue order.
func drainOrder(t *testing.T, s *Service, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		task, err := s.BucketReadyCancel(nil)
		if err != nil {
			t.Fatalf("bucket ready %d: %v", i, err)
		}
		out = append(out, task.Tenant)
	}
	return out
}

func TestFairDequeueRoundRobin(t *testing.T) {
	s := newTestService(t, 1)
	s.SetTenants("a", "b", "c")

	// Tenant a floods; b and c each submit two.
	for i := 0; i < 6; i++ {
		submitT(t, s, "a", "viz", i)
	}
	for i := 0; i < 2; i++ {
		submitT(t, s, "b", "viz", i)
		submitT(t, s, "c", "viz", i)
	}

	got := drainOrder(t, s, 10)
	// Interleaved while all three have work; once b and c drain, the
	// flooder gets the leftover capacity instead of it idling.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "a", "a", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order = %v, want %v", got, want)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
}

func TestFairDequeueHeadRequeueJumpsRing(t *testing.T) {
	s := newTestService(t, 1)
	s.SetTenants("a", "b")
	for i := 0; i < 3; i++ {
		submitT(t, s, "a", "viz", i)
		submitT(t, s, "b", "viz", i)
	}
	first, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenant != "a" {
		t.Fatalf("first dequeue tenant = %q, want a", first.Tenant)
	}
	// Requeue it: it must come back before any tenant queue is served,
	// with its attempt counted.
	if err := s.Requeue(first); err != nil {
		t.Fatal(err)
	}
	back, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != first.ID || back.Attempts != 1 {
		t.Fatalf("requeued task = id %d attempts %d, want id %d attempts 1", back.ID, back.Attempts, first.ID)
	}
}

func TestFairDequeuePerTenantBound(t *testing.T) {
	s := newTestService(t, 1)
	s.SetTenants("a", "b")
	s.SetQueueBound(2)
	// Tenant a fills its own bulkhead...
	submitT(t, s, "a", "viz", 0)
	submitT(t, s, "a", "viz", 1)
	if _, err := s.SubmitSpec(TaskSpec{Tenant: "a", Analysis: "viz", Step: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit err = %v, want ErrQueueFull", err)
	}
	// ...but b's bulkhead is unaffected.
	submitT(t, s, "b", "viz", 0)
	submitT(t, s, "b", "viz", 1)
	if got := s.QueueDepthT("a"); got != 2 {
		t.Fatalf("QueueDepthT(a) = %d, want 2", got)
	}
	if got := s.QueueDepthT("b"); got != 2 {
		t.Fatalf("QueueDepthT(b) = %d, want 2", got)
	}
	if got := s.QueueDepth(); got != 4 {
		t.Fatalf("QueueDepth = %d, want 4", got)
	}
}

func TestFairDequeueUnknownTenantJoinsRing(t *testing.T) {
	s := newTestService(t, 1)
	s.SetTenants("b")
	submitT(t, s, "b", "viz", 0)
	// A tenant never named to SetTenants sorts into the ring instead of
	// being dropped.
	submitT(t, s, "a", "viz", 0)
	got := drainOrder(t, s, 2)
	if len(got) != 2 || (got[0] == got[1]) {
		t.Fatalf("dequeue order = %v, want one task from each tenant", got)
	}
}

func TestBucketReadyCancel(t *testing.T) {
	s := newTestService(t, 1)
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.BucketReadyCancel(cancel)
		errc <- err
	}()
	// Let the waiter park, then cancel.
	for i := 0; i < 100 && s.FreeBuckets() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.FreeBuckets() != 1 {
		t.Fatal("waiter never parked")
	}
	close(cancel)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("cancelled wait err = %v, want ErrCancelled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled wait never returned")
	}
	if s.FreeBuckets() != 0 {
		t.Fatalf("free buckets after cancel = %d, want 0 (waiter removed)", s.FreeBuckets())
	}
	// The service still assigns normally afterwards.
	submitT(t, s, "", "viz", 0)
	if task, err := s.BucketReadyCancel(nil); err != nil || task.Analysis != "viz" {
		t.Fatalf("post-cancel assignment = %v task %+v", err, task)
	}
}

func TestBucketReadyCancelAssignmentWins(t *testing.T) {
	// Hammer the race between cancel and assignment: every submitted
	// task must be either delivered or still queued — never lost.
	s := newTestService(t, 1)
	for round := 0; round < 200; round++ {
		cancel := make(chan struct{})
		got := make(chan error, 1)
		go func() {
			_, err := s.BucketReadyCancel(cancel)
			got <- err
		}()
		go close(cancel)
		_, serr := s.SubmitSpec(TaskSpec{Analysis: "viz", Step: round})
		if serr != nil {
			t.Fatalf("submit: %v", serr)
		}
		err := <-got
		switch {
		case err == nil:
			// Task delivered to the cancelled waiter: nothing queued.
		case errors.Is(err, ErrCancelled):
			// Waiter unwound first: the task must be in the queue.
			task, rerr := s.BucketReadyCancel(nil)
			if rerr != nil || task.Step != round {
				t.Fatalf("round %d: task lost after cancel (err %v, task %+v)", round, rerr, task)
			}
		default:
			t.Fatalf("round %d: unexpected err %v", round, err)
		}
		if d := s.QueueDepth(); d != 0 {
			t.Fatalf("round %d: queue depth %d, want 0", round, d)
		}
	}
}

func TestTenantDescriptorNamespaces(t *testing.T) {
	s := newTestService(t, 4)
	for _, tn := range []string{"a", "b"} {
		s.Put(Descriptor{Tenant: tn, Name: "viz", Version: 3, Rank: 0})
	}
	// Tenant-less namespace is untouched by tenant puts.
	if got := len(s.TakeT("", "viz", 3)); got != 0 {
		t.Fatalf("TakeT(tenantless) = %d descriptors, want 0", got)
	}
	if got := len(s.TakeT("a", "viz", 3)); got != 1 {
		t.Fatalf("TakeT(a) = %d descriptors, want 1", got)
	}
	if got := len(s.TakeT("a", "viz", 3)); got != 0 {
		t.Fatalf("after TakeT(a): %d descriptors", got)
	}
	if got := len(s.TakeT("b", "viz", 3)); got != 1 {
		t.Fatalf("TakeT(a) touched tenant b: %d descriptors, want 1", got)
	}
}

// TestTenantCreditAccountSettlement: a credited task carries the
// account it was charged to through the queue, whatever its tenant and
// analysis, so the consumer of its final result settles against that
// account and the tenant's reservation refills.
func TestTenantCreditAccountSettlement(t *testing.T) {
	s := newTestService(t, 1)
	c, err := NewCredits(4, map[string]int{"a": 1, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Acquire("a") {
		t.Fatal("acquire a")
	}
	if _, err := s.SubmitSpec(TaskSpec{Tenant: "a", Analysis: "viz", Step: 1, Account: "a"}); err != nil {
		t.Fatal(err)
	}
	task, err := s.BucketReadyCancel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if task.Tenant != "a" || task.Analysis != "viz" || task.Account != "a" {
		t.Fatalf("pulled task lost its labels: %+v", task.TaskSpec)
	}
	c.Release(task.Account)
	out, avail, total := c.Snapshot()
	if out != 0 || avail != total {
		t.Fatalf("after settle: outstanding %d available %d total %d", out, avail, total)
	}
	if c.Exhausted("a") {
		t.Fatal("settling must refill tenant a's reservation")
	}
}

// TestCreditsInvariantConcurrent is the race-enabled multi-account
// invariant check: Outstanding + Available == Total must hold at every
// instant while many goroutines acquire, settle, and snapshot across
// tenant accounts.
func TestCreditsInvariantConcurrent(t *testing.T) {
	c, err := NewCredits(12, map[string]int{"a": 2, "b": 2, "c": 2})
	if err != nil {
		t.Fatal(err)
	}
	accounts := []string{"a", "b", "c", "d"} // d has no reservation
	var wg sync.WaitGroup
	stop := make(chan struct{})
	violation := make(chan string, 1)

	// Churners: acquire then release on their own account.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acct := accounts[g%len(accounts)]
			for i := 0; i < 2000; i++ {
				if c.Acquire(acct) {
					c.Release(acct)
				}
			}
		}(g)
	}
	// Invariant watcher: atomic snapshots while the churn runs.
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, avail, total := c.Snapshot()
			if out+avail != total {
				select {
				case violation <- fmt.Sprintf("%d + %d != %d", out, avail, total):
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-watcherDone
	select {
	case v := <-violation:
		t.Fatalf("credits invariant broken mid-churn: %s", v)
	default:
	}

	out, avail, total := c.Snapshot()
	if out != 0 || avail != total || total != 12 {
		t.Fatalf("final state: outstanding %d available %d total %d", out, avail, total)
	}
	if c.Acquire("d") && c.Acquire("a") {
		c.Release("a")
		c.Release("d")
	}
	out, avail, total = c.Snapshot()
	if out+avail != total {
		t.Fatalf("invariant broken after mixed settle: %d + %d != %d", out, avail, total)
	}
}
