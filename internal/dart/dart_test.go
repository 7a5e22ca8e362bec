package dart

import (
	"bytes"
	"errors"
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
	if h.Size != len(data) || h.Endpoint != prod.ID() {
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
	// One-sided: producer did nothing actively, but both sides get a
	// completion event.
	evP := <-prod.Events()
	evC := <-cons.Events()
	if evP.Type != EventGetDone || evC.Type != EventGetDone {
		t.Fatalf("event types wrong: %v %v", evP.Type, evC.Type)
	}
	if evP.Peer != cons.ID() || evC.Peer != prod.ID() {
		t.Fatalf("event peers wrong: %d %d", evP.Peer, evC.Peer)
	}
	if evP.Bytes != len(data) {
		t.Fatalf("event byte count wrong: %d", evP.Bytes)
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

func TestPut(t *testing.T) {
	f := newFabric()
	a := f.Register("a")
	b := f.Register("b")
	dst := make([]byte, 8)
	h := b.RegisterMem(dst)
	if _, err := a.Put(h, []byte{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 9 || dst[2] != 7 {
		t.Fatal("put did not land in the registered region")
	}
	if _, err := a.Put(h, make([]byte, 100)); err == nil {
		t.Fatal("oversized put must error")
	}
}

func TestRelease(t *testing.T) {
	f := newFabric()
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem([]byte{1})
	if err := p.Release(h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(h); err == nil {
		t.Fatal("get after release must error")
	}
	if err := p.Release(h); err == nil {
		t.Fatal("double release must error")
	}
	if err := c.Release(h); err == nil {
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

func TestUnregisterEndpoint(t *testing.T) {
	f := newFabric()
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem([]byte{1})
	f.Unregister(p)
	if _, _, err := c.Get(h); err == nil {
		t.Fatal("get from unregistered endpoint must error")
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

func TestEventOverflowDropsOldest(t *testing.T) {
	f := newFabric()
	p := f.Register("p")
	c := f.Register("c")
	h := p.RegisterMem([]byte{1})
	// Overflow the producer's 1024-deep event queue; transport must
	// never block.
	for i := 0; i < 1100; i++ {
		if _, _, err := c.Get(h); err != nil {
			t.Fatal(err)
		}
		// Drain the consumer side so only the producer overflows.
		<-c.Events()
	}
	drained := 0
	for {
		select {
		case <-p.Events():
			drained++
			continue
		default:
		}
		break
	}
	if drained == 0 || drained > 1024 {
		t.Fatalf("producer queue should hold up to 1024 events, drained %d", drained)
	}
}
