package dart

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/faults"
	"insitu/internal/netsim"
	"insitu/internal/obs"
)

// faultyFabric returns a fabric whose network injects the given
// schedule, with a fast retry policy so tests stay quick.
func faultyFabric(cfg faults.Config, attempts int) *Fabric {
	net := netsim.New(netsim.Gemini())
	net.SetFaults(faults.New(cfg))
	f := NewFabric(net)
	f.SetRetryPolicy(RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: 5 * time.Microsecond,
		MaxBackoff:  50 * time.Microsecond,
		Jitter:      0.25,
	})
	return f
}

// fabricStats sums the owner-attributed counters of every endpoint
// registered on f.
func fabricStats(f *Fabric) Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var st Stats
	for _, ep := range f.eps {
		s := ep.Stats()
		st.Retries += s.Retries
		st.ChecksumFailures += s.ChecksumFailures
	}
	return st
}

// TestGetRetriesTransientDrops: with a 50% drop rate and a deep retry
// budget, Get still delivers intact data and the retry counter moves.
func TestGetRetriesTransientDrops(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 9, Default: faults.Rates{Drop: 0.5}}, 64)
	p := f.Register("p")
	c := f.Register("c")
	data := []byte("survives a lossy fabric")
	h := p.RegisterMem(data)
	sawRetry := false
	for i := 0; i < 50; i++ {
		got, _, err := c.Get(h)
		if err != nil {
			t.Fatalf("pull %d failed despite retry budget: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pull %d returned wrong data", i)
		}
		bufpool.Put(got)
	}
	if fabricStats(f).Retries > 0 {
		sawRetry = true
	}
	if !sawRetry {
		t.Fatal("a 50% drop rate over 50 pulls must have caused at least one retry")
	}
}

// TestGetExhaustsRetriesTyped: a fully lossy link surfaces the typed
// netsim.ErrDropped after MaxAttempts.
func TestGetExhaustsRetriesTyped(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 1, Default: faults.Rates{Drop: 1}}, 3)
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem([]byte{1, 2, 3, 4})
	_, _, err := c.Get(h)
	if !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("want wrapped ErrDropped, got %v", err)
	}
	if got := fabricStats(f).Retries; got != 2 {
		t.Fatalf("3 attempts mean 2 retries, counted %d", got)
	}
}

// TestChecksumCatchesEveryCorruption: every corrupted attempt is
// caught by CRC32 verification — none reaches the caller — and clean
// retries eventually succeed.
func TestChecksumCatchesEveryCorruption(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 3, Default: faults.Rates{Corrupt: 0.5}}, 64)
	p := f.Register("p")
	c := f.Register("c")
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	h := p.RegisterMem(data)
	for i := 0; i < 40; i++ {
		got, _, err := c.Get(h)
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pull %d delivered corrupted data past the checksum", i)
		}
		bufpool.Put(got)
	}
	inj := f.Network().Faults().Counters()
	injected := inj.ByKind[faults.Corrupt]
	caught := fabricStats(f).ChecksumFailures
	if injected == 0 {
		t.Fatal("schedule injected no corruption — test is vacuous")
	}
	if caught != injected {
		t.Fatalf("checksum caught %d of %d injected corruptions", caught, injected)
	}
}

// TestDeadlineExceededTyped: a permanently faulty link under a tight
// deadline yields ErrDeadline instead of spinning.
func TestDeadlineExceededTyped(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 1, Default: faults.Rates{Drop: 1}}, 1<<20)
	pl := obs.NewPlane()
	f.SetPlane(pl)
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem(make([]byte, 64))
	_, _, err := c.GetDeadline(h, time.Now().Add(2*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	var buf bytes.Buffer
	if err := pl.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `dart_endpoint_deadline_exceeded_total{endpoint="p",tenant="default"} 1` + "\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("deadline counter: exposition lacks %q", want)
	}
}

// TestPartitionWindowHealsAfterClose: pulls fail with ErrPartitioned
// inside the window and succeed once it closes.
func TestPartitionWindowHealsAfterClose(t *testing.T) {
	f := faultyFabric(faults.Config{
		Seed:       1,
		Partitions: []faults.Window{{From: 0, Until: 4, Endpoints: []int{1}}},
	}, 2)
	p := f.Register("p") // endpoint 0
	c := f.Register("c") // endpoint 1 — partitioned for 4 decisions
	h := p.RegisterMem([]byte("heals"))
	_, _, err := c.Get(h)
	if !errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("want ErrPartitioned inside the window, got %v", err)
	}
	// Attempts 1+2 consumed decisions 0,1; two more retries pass the
	// window's edge and the link heals.
	got, _, err := c.Get(h)
	if err != nil {
		got, _, err = c.Get(h)
	}
	if err != nil || string(got) != "heals" {
		t.Fatalf("link must heal after the window closes: %v", err)
	}
}

// --- Satellite: pooled-buffer ownership on error paths ---

// TestGetErrorDoesNotLeakPeerBufferIntoPool: after failed pulls, the
// producer's pinned region must not have been recycled into bufpool —
// a poisoned pool would let an unrelated Get scribble over pinned
// memory.
func TestGetErrorDoesNotLeakPeerBufferIntoPool(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 2, Default: faults.Rates{Drop: 1}}, 3)
	p := f.Register("p")
	c := f.Register("c")
	data := make([]byte, 1024)
	for i := range data {
		data[i] = 0xA5
	}
	h := p.RegisterMem(data)
	for i := 0; i < 8; i++ {
		if _, _, err := c.Get(h); err == nil {
			t.Fatal("fully lossy link must fail")
		}
	}
	// Drain same-class pool buffers and scribble on them; the pinned
	// region must stay untouched.
	var bufs [][]byte
	for i := 0; i < 16; i++ {
		b := bufpool.Get(len(data))
		for j := range b {
			b[j] = 0x5A
		}
		bufs = append(bufs, b)
	}
	for _, b := range data {
		if b != 0xA5 {
			t.Fatal("pinned region was recycled into the pool on a failed Get")
		}
	}
	for _, b := range bufs {
		bufpool.Put(b)
	}
}

// TestGetErrorNoDoubleRecycle: a failed Get recycles its staging
// buffer exactly once — two fresh pool buffers of that class must
// never alias each other.
func TestGetErrorNoDoubleRecycle(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 4, Default: faults.Rates{Drop: 1}}, 2)
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem(make([]byte, 2048))
	if _, _, err := c.Get(h); err == nil {
		t.Fatal("expected failure")
	}
	b1 := bufpool.Get(2048)
	b2 := bufpool.Get(2048)
	if &b1[0] == &b2[0] {
		t.Fatal("double recycle: pool handed the same buffer out twice")
	}
	bufpool.Put(b1)
	bufpool.Put(b2)
}
