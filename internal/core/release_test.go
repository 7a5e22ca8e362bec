package core

import (
	"runtime"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/render"
	"insitu/internal/sim"
)

// secondRunNX is the x extent of TestSecondRunReusesRankState's next
// grid.
var secondRunNX = 48

// TestSecondRunReusesRankState is the allocation gate of the recycled
// rank state. Two builds of one config run back to back: the first
// run's ranks draw their simulation slabs and in-situ merge-tree
// scratches, and hand them back when their loops end; the second run's
// ranks draw the same ones again, so it allocates at most a quarter of
// what the first did. Its grid is longer than any other test's in this
// package, and than its own on an earlier call (-count), so the first
// run cannot find slabs long enough left behind. Both runs return every
// framebuffer and unpin every region.
func TestSecondRunReusesRankState(t *testing.T) {
	const steps = 4
	nx := secondRunNX
	secondRunNX += 8
	build := func() *Pipeline {
		cfg := sim.DefaultConfig(grid.NewBox(nx, 24, 16), 2, 1, 1)
		cfg.KernelRate = 0.6
		p, err := NewPipeline(DefaultConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		topo := NewTopologyHybrid()
		topo.SimplifyEps = 0.05
		p.Register(&StatsHybrid{})
		p.Register(NewVizHybrid(40, 30, 2))
		p.Register(topo)
		return p
	}
	frames := render.ImagesOutstanding()
	var alloc [2]uint64
	for i := range alloc {
		p := build()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep, err := p.Run(steps)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("run %d: %v (all errs: %v)", i+1, err, rep.Errs)
		}
		alloc[i] = m1.TotalAlloc - m0.TotalAlloc
		if n := p.PinnedRegions(); n != 0 {
			t.Errorf("run %d leaves %d regions pinned", i+1, n)
		}
		if n := render.ImagesOutstanding() - frames; n != 0 {
			t.Errorf("run %d leaves %d framebuffers outstanding", i+1, n)
		}
	}
	t.Logf("the first run allocates %d KB, the second %d KB", alloc[0]>>10, alloc[1]>>10)
	if alloc[1] > alloc[0]/4 {
		t.Errorf("the second run allocates %d B, want <= a quarter of the first run's %d B", alloc[1], alloc[0])
	}
}
