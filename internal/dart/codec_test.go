package dart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/faults"
	"insitu/internal/netsim"
)

// codecFabric returns a clean fabric with a codec registry attached.
func codecFabric() *Fabric {
	f := NewFabric(netsim.New(netsim.Gemini()))
	f.SetCodecs(codec.NewRegistry())
	return f
}

// floatPayload builds a header + float64-tail payload.
func floatPayload(rng *rand.Rand, header, count int) []byte {
	p := make([]byte, header+8*count)
	rng.Read(p[:header])
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(p[header+8*i:], math.Float64bits(math.Sin(float64(i)/40)))
	}
	return p
}

// TestRegisterMemEncodedRoundTrip: an encoded registration pulls back
// the original payload transparently, the pinned region is smaller
// than raw, and the fabric's byte economy records the saving.
func TestRegisterMemEncodedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := codecFabric()
	p := f.Register("producer")
	c := f.Register("consumer")
	payload := floatPayload(rng, 76, 4096)

	// Two versions so delta gets a base; version 2 must shrink.
	er1, err := p.RegisterMemEncoded(codec.Spec{ID: codec.Delta}, "viz/0", 1, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs1 := f.CodecStats()
	er2, err := p.RegisterMemEncoded(codec.Spec{ID: codec.Delta}, "viz/0", 2, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := f.CodecStats()
	wire1, wire2 := cs1.EncodedBytes, cs.EncodedBytes-cs1.EncodedBytes
	if raw2 := cs.RawBytes - cs1.RawBytes; wire2 >= raw2 {
		t.Fatalf("identical-payload delta pinned %d bytes for %d raw", wire2, raw2)
	}
	for i, er := range []EncodedRegion{er1, er2} {
		before := f.Network().Stats().BytesMoved
		got, _, err := c.Get(er.Handle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("framed Get did not reconstruct the raw payload")
		}
		bufpool.Put(got)
		// Modeled latency scales with the encoded bytes the pull moves.
		if moved, wire := f.Network().Stats().BytesMoved-before, []int64{wire1, wire2}[i]; moved != wire {
			t.Fatalf("version %d: the pull moved %d bytes, the pinned frame is %d", i+1, moved, wire)
		}
	}
	if cs.RawBytes != int64(2*len(payload)) {
		t.Fatalf("codec stats %+v inconsistent with registrations", cs)
	}
	if cs.Ratio() <= 1 {
		t.Fatalf("compression ratio %.2f, want > 1", cs.Ratio())
	}
	if cs.MaxError != 0 {
		t.Fatalf("delta is exact, recorded max error %g", cs.MaxError)
	}
}

// TestRegisterMemEncodedQuantize records the bounded error and keeps
// the handle pointing at the packed frame.
func TestRegisterMemEncodedQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := codecFabric()
	p := f.Register("producer")
	c := f.Register("consumer")
	payload := floatPayload(rng, 76, 2048)
	er, err := p.RegisterMemEncoded(codec.Spec{ID: codec.Quantize}, "viz/0", 1, payload, 76)
	if err != nil {
		t.Fatal(err)
	}
	cs := f.CodecStats()
	if ratio := cs.Ratio(); ratio < 3 {
		t.Fatalf("quantize wire ratio %.2fx, want >= 3x", ratio)
	}
	if cs.MaxError <= 0 {
		t.Fatal("quantize must report a nonzero bounded error on a varying field")
	}
	got, _, err := c.Get(er.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(got)
	for i := 0; i < 2048; i++ {
		a := math.Float64frombits(binary.LittleEndian.Uint64(payload[76+8*i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(got[76+8*i:]))
		if math.Abs(a-b) > cs.MaxError {
			t.Fatalf("value %d off by %g, reported bound %g", i, math.Abs(a-b), cs.MaxError)
		}
	}
}

// TestRegisterMemEncodedIdentity: an identity spec pins raw unframed
// and behaves byte-for-byte like RegisterMem.
func TestRegisterMemEncodedIdentity(t *testing.T) {
	f := codecFabric()
	p := f.Register("producer")
	c := f.Register("consumer")
	payload := []byte("plain bytes, no frame")
	er, err := p.RegisterMemEncoded(codec.Spec{}, "k", 1, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs := f.CodecStats(); er.Codec != codec.Identity || cs.EncodedBytes != int64(len(payload)) {
		t.Fatalf("identity registration = %+v, codec stats %+v", er, cs)
	}
	got, _, err := c.Get(er.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("identity round trip broken")
	}
	bufpool.Put(got)
}

// TestRegisterMemEncodedNoRegistry returns the typed sentinel.
func TestRegisterMemEncodedNoRegistry(t *testing.T) {
	f := NewFabric(netsim.New(netsim.Gemini()))
	p := f.Register("producer")
	_, err := p.RegisterMemEncoded(codec.Spec{ID: codec.Delta}, "k", 1, []byte{1, 2}, 0)
	if !errors.Is(err, ErrNoCodecs) {
		t.Fatalf("got %v, want ErrNoCodecs", err)
	}
}

// TestCorruptedFramesCaughtBeforeDecode is the chaos-interaction
// property: with injected wire corruption on encoded frames, CRC32
// catches every corrupt transfer before the decoder runs, retries pull
// clean bytes, and the decoded payload is always exact.
func TestCorruptedFramesCaughtBeforeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := netsim.New(netsim.Gemini())
	net.SetFaults(faults.New(faults.Config{Seed: 7, Default: faults.Rates{Corrupt: 0.5}}))
	f := NewFabric(net)
	f.SetRetryPolicy(RetryPolicy{MaxAttempts: 64, BaseBackoff: 5e3, MaxBackoff: 5e4, Jitter: 0.25})
	f.SetCodecs(codec.NewRegistry())
	p := f.Register("producer")
	c := f.Register("consumer")

	payload := floatPayload(rng, 76, 2048)
	var handles []MemHandle
	for v := 1; v <= 8; v++ {
		er, err := p.RegisterMemEncoded(codec.Spec{ID: codec.Delta}, "chaos/0", v, payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, er.Handle)
	}
	for i, h := range handles {
		got, _, err := c.Get(h)
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("pull %d delivered a corrupted decode", i)
		}
		bufpool.Put(got)
	}
	injected := f.Network().Faults().Counters().ByKind[faults.Corrupt]
	if injected == 0 {
		t.Fatal("schedule injected no corruption — test is vacuous")
	}
	if caught := fabricStats(f).ChecksumFailures; caught != injected {
		t.Fatalf("checksum caught %d of %d corrupted encoded frames", caught, injected)
	}
}
