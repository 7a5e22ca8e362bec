// Parallel-kernel and pooled-transfer benches: each BenchmarkParallel*
// measures the worker-pool variant of an in-situ kernel and reports its
// speedup over a serial reference timed in the same process, so
// `go test -bench Parallel -benchmem` measures the parallel gain on any
// machine. On a single-CPU host the pool
// collapses to one worker and the speedup metric hovers around 1.0;
// the interesting readings need GOMAXPROCS >= 4.
package insitu

import (
	"testing"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/dart"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/netsim"
	"insitu/internal/stats"
)

// timeSerial measures one op of fn (repeated reps times) outside the
// benchmark timer, as the serial reference for the speedup metric.
func timeSerial(reps int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

func reportSpeedup(b *testing.B, serial time.Duration) {
	b.Helper()
	par := b.Elapsed() / time.Duration(b.N)
	if par > 0 {
		b.ReportMetric(float64(serial)/float64(par), "speedup")
	}
}

// BenchmarkParallelRender compares the tile-parallel raycaster (row
// bands on the shared pool) against the single-worker path. Pixels are
// independent, so the framebuffer is bitwise identical at any width.
func BenchmarkParallelRender(b *testing.B) {
	benchSetup(b)
	serial := benchRenderer(b, benchGlobal, 0.4)
	serial.Workers = 1
	par := benchRenderer(b, benchGlobal, 0.4)
	par.Workers = 0 // GOMAXPROCS
	ref := timeSerial(3, func() { serial.RenderSerial(benchField) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.RenderSerial(benchField)
	}
	reportSpeedup(b, ref)
}

// BenchmarkParallelMergeTree compares the pool-driven per-rank local
// merge-subtree construction (LocalSubtrees) against the rank-by-rank
// serial loop over the same ghosted blocks.
func BenchmarkParallelMergeTree(b *testing.B) {
	benchSetup(b)
	blocks := make([]grid.Box, benchDecomp.Ranks())
	for r := range blocks {
		blocks[r] = benchDecomp.Block(r)
	}
	ref := timeSerial(1, func() {
		for r := 0; r < benchDecomp.Ranks(); r++ {
			if _, err := mergetree.LocalSubtree(benchGhosted[r], benchGlobal, blocks[r], r, mergetree.KeepSharedBoundary); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mergetree.LocalSubtrees(benchGhosted, benchGlobal, blocks, mergetree.KeepSharedBoundary); err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedup(b, ref)
}

// BenchmarkParallelStatsLearn compares the chunk-parallel single-pass
// moments accumulation against the serial UpdateBatch over the global
// temperature field (results agree to the last bit of the chunked
// reduction order, machine-independently).
func BenchmarkParallelStatsLearn(b *testing.B) {
	benchSetup(b)
	ref := timeSerial(10, func() {
		m := stats.NewModel()
		m.LearnField(benchField)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := stats.NewModel()
		m.LearnFieldParallel(benchField)
	}
	reportSpeedup(b, ref)
}

// BenchmarkParallelContingency compares chunk-parallel bivariate
// binning (integer counts: bitwise identical to serial) against the
// serial UpdateBatch.
func BenchmarkParallelContingency(b *testing.B) {
	benchSetup(b)
	mk := func() *stats.Contingency {
		tab, err := stats.NewContingency(0, 2.5, 16, 0, 0.3, 16)
		if err != nil {
			b.Fatal(err)
		}
		return tab
	}
	ref := timeSerial(10, func() {
		if err := mk().UpdateBatch(benchField.Data, benchOH.Data); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mk().UpdateBatchParallel(benchField.Data, benchOH.Data); err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedup(b, ref)
}

// BenchmarkPooledTransferGet measures the steady-state DART pull path
// with the consumer returning buffers to the pool: after warm-up the
// loop runs allocation-free (compare allocs/op with
// BenchmarkUnpooledTransferGet).
func BenchmarkPooledTransferGet(b *testing.B) {
	fabric := dart.NewFabric(netsim.New(netsim.Gemini()))
	prod := fabric.Register("sim")
	cons := fabric.Register("bucket")
	payload := make([]byte, 1<<20)
	h := prod.RegisterMem(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := cons.Get(h)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(data)
	}
}

// BenchmarkUnpooledTransferGet is the pre-pool reference: a fresh
// destination buffer per pull through the same netsim choke point.
func BenchmarkUnpooledTransferGet(b *testing.B) {
	net := netsim.New(netsim.Gemini())
	payload := make([]byte, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := make([]byte, len(payload))
		net.TransferInto(dst, payload)
	}
}

// BenchmarkPooledFieldMarshal measures the zero-copy field encoding
// (AppendMarshal into a pooled, exactly presized buffer) against the
// historical bytes.Buffer path it replaced, whose cost survives as the
// allocation count of Marshal into a fresh slice.
func BenchmarkPooledFieldMarshal(b *testing.B) {
	benchSetup(b)
	block := benchField.Extract(benchDecomp.Block(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := bufpool.Get(block.MarshalSize())[:0]
		buf = block.AppendMarshal(buf)
		bufpool.Put(buf)
	}
}
