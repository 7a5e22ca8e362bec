package dart

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"insitu/internal/netsim"
)

func newFabric() *Fabric {
	return NewFabric(netsim.New(netsim.Gemini()))
}

func TestRegisterGet(t *testing.T) {
	f := newFabric()
	prod := f.Register("sim-0")
	cons := f.Register("bucket-0")
	data := []byte("intermediate analysis data")
	h := prod.RegisterMem(data)
	if h.Endpoint != prod.ID() {
		t.Fatalf("handle wrong: %+v", h)
	}
	got, d, err := cons.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("get returned wrong data")
	}
	if d <= 0 {
		t.Fatal("get must report modeled duration")
	}
}

func TestGetAliasesPinnedRegion(t *testing.T) {
	f := newFabric()
	prod := f.Register("sim")
	cons := f.Register("bkt")
	data := []byte{1, 2, 3}
	h := prod.RegisterMem(data)
	// RegisterMem pins the live buffer, not a copy: Reclaim hands the
	// very same backing array back.
	got, err := prod.Reclaim(h)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &data[0] {
		t.Fatal("RegisterMem must pin the live buffer, not a copy")
	}
	// Mutating a pinned buffer violates the RDMA pin contract; the
	// CRC32 framing turns that into a typed checksum error at the
	// consumer instead of silently delivering torn data.
	h = prod.RegisterMem(data)
	data[0] = 42
	if _, _, err := cons.Get(h); !errors.Is(err, ErrChecksum) {
		t.Fatalf("pull of a mutated pinned region must fail checksum verification, got %v", err)
	}
}

func TestRelease(t *testing.T) {
	f := newFabric()
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem([]byte{1})
	if _, err := p.Reclaim(h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(h); err == nil {
		t.Fatal("get after release must error")
	}
	if _, err := p.Reclaim(h); err == nil {
		t.Fatal("double release must error")
	}
	if _, err := c.Reclaim(h); err == nil {
		t.Fatal("releasing a foreign handle must error")
	}
}

func TestGetErrors(t *testing.T) {
	f := newFabric()
	c := f.Register("c")
	if _, _, err := c.Get(MemHandle{Endpoint: 99, Region: 0}); err == nil {
		t.Fatal("get from unknown endpoint must error")
	}
	p := f.Register("p")
	if _, _, err := c.Get(MemHandle{Endpoint: p.ID(), Region: 42}); err == nil {
		t.Fatal("get of unknown region must error")
	}
}

// TestUnregisterEndpoint: a handle naming an endpoint the fabric never
// registered fails with the typed ErrUnregistered.
func TestUnregisterEndpoint(t *testing.T) {
	f := newFabric()
	c := f.Register("c")
	if _, _, err := c.Get(MemHandle{Endpoint: 99, Region: 0}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("get from unregistered endpoint: error %v, want ErrUnregistered", err)
	}
}

func TestConcurrentPulls(t *testing.T) {
	f := newFabric()
	prod := f.Register("sim")
	// Many consumers pulling the same region concurrently, as staging
	// buckets do.
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	h := prod.RegisterMem(data)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := f.Register("bucket")
			got, _, err := c.Get(h)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errMismatch
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := f.Network().Stats(); st.BytesMoved < int64(16*len(data)) {
		t.Fatalf("network accounting too small: %d", st.BytesMoved)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "data mismatch" }

// TestJitterSeededOnFirstDraw: NewFabric seeds no random source; the
// first backoff jitter does, with seed 1, so a retrying fabric draws
// the same sequence an eagerly seeded one did.
func TestJitterSeededOnFirstDraw(t *testing.T) {
	f := newFabric()
	if f.jit != nil {
		t.Fatal("NewFabric seeded the jitter source")
	}
	want := rand.New(rand.NewSource(1))
	for i := range 8 {
		if got, w := f.jitter(), want.Float64(); got != w {
			t.Fatalf("draw %d: %v, want %v", i, got, w)
		}
	}
}
