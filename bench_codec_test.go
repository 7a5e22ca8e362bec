// Transfer-path codec benches: each BenchmarkCodec* reports the
// machine-independent byte economy of one codec on a representative
// payload alongside the usual timing numbers, so
// `go test -bench Codec -benchmem` reports the x-compression and
// max-err columns EXPERIMENTS.md quotes on any machine.
package insitu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/dart"
	"insitu/internal/grid"
	"insitu/internal/netsim"
)

// benchEvolve perturbs roughly one in eight samples of the field tail
// in place — the sparse, localized change a slowly advancing flame
// front writes between checkpoints.
func benchEvolve(rng *rand.Rand, p []byte, off int) {
	for i := off; i+8 <= len(p); i += 8 {
		if rng.Intn(8) != 0 {
			continue
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[i:]))
		v += 1e-6 * (rng.Float64() - 0.5)
		binary.LittleEndian.PutUint64(p[i:], math.Float64bits(v))
	}
}

// benchCheckpointPayload marshals rank 0's full-resolution block — the
// checkpoint-path payload shape — and returns it with its float tail's
// offset and the quantize spec the viz path gives it: the tail's shape,
// at the default error bound.
func benchCheckpointPayload(b *testing.B) ([]byte, int, codec.Spec) {
	benchSetup(b)
	block := benchField.Extract(benchDecomp.Block(0))
	payload := block.Marshal()
	off, nx, ny, ok := grid.FloatTail(payload)
	if !ok {
		b.Fatal("checkpoint payload has no float tail")
	}
	return payload, off, codec.Spec{ID: codec.Quantize, NX: nx, NY: ny}
}

// BenchmarkCodecDeltaCheckpoint measures steady-state delta encoding
// of consecutive checkpoint versions of one rank's block. The reported
// x-compression is raw/encoded over the timed loop; reconstruction is
// exact, so max-err is identically zero.
func BenchmarkCodecDeltaCheckpoint(b *testing.B) {
	payload, off, _ := benchCheckpointPayload(b)
	reg := codec.NewRegistry()
	spec := codec.Spec{ID: codec.Delta}
	key := codec.Key("checkpoint", 0)
	rng := rand.New(rand.NewSource(1))
	// Prime the base store so the timed loop measures steady state.
	res, err := reg.Encode(spec, key, 0, payload, off)
	if err != nil {
		b.Fatal(err)
	}
	bufpool.Put(res.Frame)
	var raw, enc int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchEvolve(rng, payload, off)
		b.StartTimer()
		res, err := reg.Encode(spec, key, i+1, payload, off)
		if err != nil {
			b.Fatal(err)
		}
		raw += int64(len(payload))
		enc += int64(len(res.Frame))
		bufpool.Put(res.Frame)
	}
	if enc > 0 {
		b.ReportMetric(float64(raw)/float64(enc), "x-compression")
	}
	b.ReportMetric(0, "max-err")
}

// BenchmarkCodecQuantizeViz measures bounded-error quantization of the
// viz-path payload at the default error bound (1e-4 of the value
// range), over consecutive versions of one stream: the block at two
// successive steps, taking turns, so every timed encode is predicted
// from the other step's levels. Reports x-compression and the worst
// observed reconstruction error across the run.
func BenchmarkCodecQuantizeViz(b *testing.B) {
	payload, off, spec := benchCheckpointPayload(b)
	next := benchNext.Extract(benchDecomp.Block(0)).Marshal()
	reg := codec.NewRegistry()
	key := codec.Key("viz", 0)
	// Prime the base store so the timed loop measures steady state.
	res, err := reg.Encode(spec, key, 0, payload, off)
	if err != nil {
		b.Fatal(err)
	}
	bufpool.Put(res.Frame)
	var raw, enc int64
	maxErr := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := next
		if i%2 == 1 {
			p = payload
		}
		res, err := reg.Encode(spec, key, i+1, p, off)
		if err != nil {
			b.Fatal(err)
		}
		raw += int64(len(p))
		enc += int64(len(res.Frame))
		if res.MaxError > maxErr {
			maxErr = res.MaxError
		}
		bufpool.Put(res.Frame)
	}
	if enc > 0 {
		b.ReportMetric(float64(raw)/float64(enc), "x-compression")
	}
	b.ReportMetric(maxErr, "max-err")
}

// BenchmarkCodecFramedGet measures the steady-state DART pull path
// through a quantized frame: CRC verify, decode, pooled buffers in and
// out. After warm-up the loop runs allocation-free (compare allocs/op
// with BenchmarkPooledTransferGet, the identity reference).
func BenchmarkCodecFramedGet(b *testing.B) {
	payload, off, spec := benchCheckpointPayload(b)
	fabric := dart.NewFabric(netsim.New(netsim.Gemini()))
	fabric.SetCodecs(codec.NewRegistry())
	prod := fabric.Register("sim")
	cons := fabric.Register("bucket")
	er, err := prod.RegisterMemEncoded(spec, codec.Key("viz", 0), 0, payload, off)
	if err != nil {
		b.Fatal(err)
	}
	if er.Codec != codec.Quantize {
		b.Fatalf("payload did not quantize: codec %v", er.Codec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := cons.Get(er.Handle)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(data)
	}
	b.ReportMetric(fabric.CodecStats().Ratio(), "x-compression")
}
