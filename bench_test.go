// Ablation benches of the design choices DESIGN.md calls out. Custom
// metrics (bytes moved, peak resident vertices, makespan) are attached
// with b.ReportMetric so `go test -bench Ablation -benchmem` reports
// them alongside ns/op. The paper's tables and figures are measured by
// the end-to-end benchmark (benchmark/, BENCHMARK.json) and regenerated
// by cmd/experiments.
package insitu

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/netsim"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/staging"
)

// benchSetup builds a steady-state flame field for the benches (one sim
// spin-up shared across them via sync.Once).
var (
	benchOnce    sync.Once
	benchGlobal  grid.Box
	benchDecomp  *grid.Decomp
	benchGhosted []*grid.Field // per-rank ghosted temperature blocks
	benchField   *grid.Field   // stitched global temperature
	benchNext    *grid.Field   // the same, one step later
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchGlobal = grid.NewBox(48, 32, 16)
		cfg := sim.DefaultConfig(benchGlobal, 4, 2, 2)
		cfg.KernelRate = 1.0
		s, err := sim.New(cfg)
		if err != nil {
			panic(err)
		}
		benchDecomp = s.Decomp()
		benchGhosted = make([]*grid.Field, s.Ranks())
		benchField = grid.NewField("T", benchGlobal)
		benchNext = grid.NewField("T", benchGlobal)
		var mu sync.Mutex
		err = sim.RunAll(s, func(rk *sim.Rank) error {
			rk.RunSteps(15)
			g := rk.GhostedField("T")
			g = g.Extract(g.Box)
			mu.Lock()
			benchGhosted[rk.Comm().ID()] = g
			benchField.Paste(rk.Field("T"))
			mu.Unlock()
			rk.RunSteps(1)
			mu.Lock()
			benchNext.Paste(rk.Field("T"))
			mu.Unlock()
			return nil
		})
		if err != nil {
			panic(err)
		}
	})
}

func benchSubtrees(b *testing.B, policy mergetree.BoundaryPolicy) ([]*mergetree.Subtree, int) {
	b.Helper()
	var subtrees []*mergetree.Subtree
	moved := 0
	for r := 0; r < benchDecomp.Ranks(); r++ {
		st, err := mergetree.LocalSubtree(benchGhosted[r], benchGlobal, benchDecomp.Block(r), r, policy)
		if err != nil {
			b.Fatal(err)
		}
		moved += st.MarshalSize()
		subtrees = append(subtrees, st)
	}
	return subtrees, moved
}

func benchRenderer(b *testing.B, g grid.Box, step float64) *render.Renderer {
	b.Helper()
	r, err := render.NewRenderer(160, 120, render.HotMetal(0.3, 2.2),
		[3]float64{0.45, 0.3, 1}, [3]float64{0, 1, 0}, step, g)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationPullVsPush compares the paper's pull-based FCFS
// bucket scheduling against naive round-robin push assignment under
// heterogeneous task durations: push stalls behind slow tasks, pull
// load-balances. The metric is makespan per task batch.
func BenchmarkAblationPullVsPush(b *testing.B) {
	const buckets = 4
	const tasks = 16
	// Each simulation step submits its analyses in a fixed order —
	// topology (slow), then statistics, visualization, autocorrelation
	// (fast). Blind round-robin assignment therefore lands every slow
	// topology task on the same bucket; the pull-based free-bucket
	// list spreads them by construction.
	dur := func(i int) time.Duration {
		if i%buckets == 0 {
			return 4 * time.Millisecond
		}
		return 500 * time.Microsecond
	}
	b.Run("pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queue := make(chan int, tasks)
			for t := 0; t < tasks; t++ {
				queue <- t
			}
			close(queue)
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < buckets; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for t := range queue {
						time.Sleep(dur(t))
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(time.Since(start).Microseconds()), "makespan_us")
		}
	})
	b.Run("push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queues := make([]chan int, buckets)
			for w := range queues {
				queues[w] = make(chan int, tasks)
			}
			for t := 0; t < tasks; t++ {
				queues[t%buckets] <- t // assigned blind to bucket load
			}
			for _, q := range queues {
				close(q)
			}
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < buckets; w++ {
				wg.Add(1)
				go func(q chan int) {
					defer wg.Done()
					for t := range q {
						time.Sleep(dur(t))
					}
				}(queues[w])
			}
			wg.Wait()
			b.ReportMetric(float64(time.Since(start).Microseconds()), "makespan_us")
		}
	})
}

// BenchmarkAblationBuckets measures temporal multiplexing: steps/sec
// of a pipeline whose in-transit stage is slower than the simulation
// step, as a function of the bucket count. Below the multiplexing
// width ceil(T_intransit/T_step) the staging area is the bottleneck.
func BenchmarkAblationBuckets(b *testing.B) {
	for _, buckets := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			fabric := dart.NewFabric(netsim.New(netsim.Gemini()))
			ds, err := dataspaces.New(fabric, 2)
			if err != nil {
				b.Fatal(err)
			}
			area, err := staging.New(fabric, ds, buckets, nil)
			if err != nil {
				b.Fatal(err)
			}
			area.HandleT("", "slow", func(task dataspaces.Task, data [][]byte) (any, error) {
				time.Sleep(2 * time.Millisecond) // in-transit ~4x the step time
				return nil, nil
			})
			area.Start()
			prod := fabric.Register("sim")
			payload := make([]byte, 1024)
			completed := make(chan struct{}, 1<<20)
			go func() {
				for range area.Results() {
					completed <- struct{}{}
				}
				close(completed)
			}()
			// Timed region: submit one task per simulated step, then
			// wait until every in-transit task completes, measuring
			// end-to-end throughput.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(500 * time.Microsecond) // the simulation step
				h := prod.RegisterMem(payload)
				ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "slow", Step: i, Inputs: []dataspaces.Descriptor{{Name: "slow", Version: i, Handle: h}}})
			}
			for i := 0; i < b.N; i++ {
				<-completed
			}
			b.StopTimer()
			ds.Close()
			area.Wait()
		})
	}
}

// BenchmarkAblationMsgPath reports the modeled transfer duration for
// message sizes straddling the SMSG/FMA/BTE crossovers, as DART
// selects mechanisms on Gemini.
func BenchmarkAblationMsgPath(b *testing.B) {
	net := netsim.New(netsim.Gemini())
	for _, size := range []int{256, 4 << 10, 256 << 10, 8 << 20} {
		src, dst := make([]byte, size), make([]byte, size)
		d, path := net.Cost(size)
		b.Run(fmt.Sprintf("%s_%dB", path, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.TransferInto(dst, src)
			}
			b.ReportMetric(float64(d.Nanoseconds()), "modeled_ns")
		})
	}
}

// BenchmarkAblationDownsample sweeps the hybrid visualization's
// down-sampling factor: payload bytes fall cubically while the
// in-transit render stays cheap — the fidelity/movement trade of
// Fig. 2.
func BenchmarkAblationDownsample(b *testing.B) {
	benchSetup(b)
	for _, factor := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("factor=%d", factor), func(b *testing.B) {
			var moved int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				moved = 0
				bt := render.NewBlockTable()
				for r := 0; r < benchDecomp.Ranks(); r++ {
					p, n := render.DownsampleForTransit(benchGhosted[r], benchDecomp.Block(r), factor)
					moved += n
					if err := bt.AddMarshalled(p); err != nil {
						b.Fatal(err)
					}
				}
				rr := benchRenderer(b, bt.Bounds(), 0.4/float64(factor))
				if _, err := rr.RenderTable(bt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(moved), "movedBytes")
		})
	}
}

// BenchmarkAblationStreamingEviction contrasts the in-transit
// aggregation with and without eviction: Builder.Glue's peak resident
// set against the vertices it declares, every one of which would stay
// resident without eviction.
func BenchmarkAblationStreamingEviction(b *testing.B) {
	benchSetup(b)
	subtrees, _ := benchSubtrees(b, mergetree.KeepSharedBoundary)
	var bld mergetree.Builder
	var st mergetree.StreamStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = bld.Glue(subtrees); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.PeakLive), "peakResidentVerts")
	b.ReportMetric(float64(st.Declared), "declaredVerts")
}

// BenchmarkAblationBoundaryPolicy reports the intermediate-data size
// under each boundary augmentation policy (correctness differs too:
// KeepSharedBoundary and KeepOverlapMaxima reproduce the exact global
// tree, KeepNone does not — see the mergetree ablation tests).
func BenchmarkAblationBoundaryPolicy(b *testing.B) {
	benchSetup(b)
	for policy, name := range map[mergetree.BoundaryPolicy]string{
		mergetree.KeepSharedBoundary: "sharedBoundary",
		mergetree.KeepOverlapMaxima:  "overlapMaxima",
		mergetree.KeepNone:           "none",
	} {
		b.Run(name, func(b *testing.B) {
			var moved int
			for i := 0; i < b.N; i++ {
				_, moved = benchSubtrees(b, policy)
			}
			b.ReportMetric(float64(moved), "movedBytes")
		})
	}
}
