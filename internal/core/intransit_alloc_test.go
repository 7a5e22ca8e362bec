package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// TestInTransitTopologyAllocatesFlat is the bucket-side guard of the
// one merge-tree engine: once a transit scratch has grown, the
// topology in-transit stage — decode, streaming glue, simplify,
// features — allocates only its result, a fixed handful of objects
// whose bytes are the kept tree's, however many vertices it glued. A
// node, map entry or link per glued vertex anywhere on the path fails
// it.
func TestInTransitTopologyAllocatesFlat(t *testing.T) {
	const step = 3
	topo := &TopologyHybrid{Var: "T", SimplifyEps: 0.05}
	// Subtrees of a random field, cut as the in-situ stage cuts them:
	// a critical point every few cells gives the glue a real tree.
	global := grid.NewBox(32, 16, 12)
	dc, err := grid.NewDecomp(global, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField("T", global)
	rng := rand.New(rand.NewSource(3))
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	var s mergetree.Scratch
	payloads := make([][]byte, dc.Ranks())
	for r := range payloads {
		st, err := s.Subtree(f, global, dc.Block(r), r, mergetree.KeepOverlapMaxima)
		if err != nil {
			t.Fatal(err)
		}
		payloads[r] = st.AppendMarshal(nil)
	}
	res, err := topo.InTransit(step, payloads)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes are in descending sweep order: a quarter of them lie above
	// this threshold.
	tree := res.(*TopologyResult).Tree
	topo.FeatureThreshold = tree.Values[tree.Len()/4]
	if res, err = topo.InTransit(step, payloads); err != nil {
		t.Fatal(err)
	}
	tr := res.(*TopologyResult)
	if tr.Stream.Declared < 1000 || len(tr.Features) == 0 {
		t.Fatalf("glued %d vertices into %d features: the guard needs a real tree", tr.Stream.Declared, len(tr.Features))
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := topo.InTransit(step, payloads); err != nil {
			t.Fatal(err)
		}
	})
	// The result, the tree and its three arrays, the feature slice.
	if allocs > 6 {
		t.Errorf("the in-transit stage allocates %v objects a call on a warm scratch, want <= 6", allocs)
	}

	// The cheapest of three batches: what another goroutine of the
	// process allocates meanwhile lands in single batches.
	const calls = 10
	perCall := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range calls {
			if _, err := topo.InTransit(step, payloads); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		perCall = min(perCall, (m1.TotalAlloc-m0.TotalAlloc)/calls)
	}
	kept := uint64(20*tr.Tree.Len() + 40*len(tr.Features) + 256)
	t.Logf("%d vertices glued, %d kept: %v objects and %d B a call", tr.Stream.Declared, tr.Tree.Len(), allocs, perCall)
	if perCall > kept+kept/4 {
		t.Errorf("the in-transit stage allocates %d B a call, its result holds %d B: it allocates more than what it keeps", perCall, kept)
	}
}

// TestInTransitVizAllocatesFlat is the bucket-side guard of the hybrid
// viz route: once a transit scratch has grown, the in-transit stage
// decodes every block into the scratch's block table and renders into
// pooled frames, so a call allocates a fixed handful of objects (the
// frame set, the renderer, the fork-join's state) and two per row band
// (its cursor and its worker's closure) however large the blocks, and
// its bytes are a small fraction of the blocks it decodes. A fresh
// table, a freshly allocated block per call or one more object per row
// band fails it; the last shows only at a GOMAXPROCS of 2 or more.
func TestInTransitVizAllocatesFlat(t *testing.T) {
	const step, width, height = 3, 32, 24
	global := grid.NewBox(32, 16, 12)
	dc, err := grid.NewDecomp(global, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := grid.NewField("T", global)
	rng := rand.New(rand.NewSource(5))
	for i := range f.Data {
		f.Data[i] = 0.2 + 1.8*rng.Float64()
	}
	maxAllocs := uint64(7 + 2*min(runtime.GOMAXPROCS(0), height)) // at most one row band per worker
	var allocs []uint64
	for _, factor := range []int{1, 2} {
		viz := NewVizHybrid(width, height, factor)
		payloads := make([][]byte, dc.Ranks())
		payloadBytes := 0
		for r := range payloads {
			payloads[r], _ = render.DownsampleForTransit(f, dc.Block(r), factor)
			payloadBytes += len(payloads[r])
		}
		call := func() {
			res, err := viz.InTransit(step, payloads)
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range res.(*render.FrameSet).Frames {
				render.PutImage(fr.Img)
			}
		}
		call()

		// The cheapest of six batches, as in the topology guard: what
		// another goroutine of the process allocates meanwhile lands in
		// single batches. They count at full width, not with
		// testing.AllocsPerRun, which pins GOMAXPROCS to 1, where a
		// per-band allocation hides in the one band.
		const calls = 20
		perCall, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 6 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for range calls {
				call()
			}
			runtime.ReadMemStats(&m1)
			perCall = min(perCall, (m1.TotalAlloc-m0.TotalAlloc)/calls)
			objects = min(objects, (m1.Mallocs-m0.Mallocs)/calls)
		}
		allocs = append(allocs, objects)
		t.Logf("factor %d: %d payload bytes, %d objects and %d B a call at GOMAXPROCS %d", factor, payloadBytes, objects, perCall, runtime.GOMAXPROCS(0))
		if objects > maxAllocs {
			t.Errorf("factor %d: the in-transit stage allocates %d objects a call on a warm scratch at GOMAXPROCS %d, want <= %d", factor, objects, runtime.GOMAXPROCS(0), maxAllocs)
		}
		if factor == 1 && perCall >= uint64(payloadBytes/16) {
			t.Errorf("factor %d: the in-transit stage allocates %d B a call for %d payload bytes: it copies what it decodes", factor, perCall, payloadBytes)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("the in-transit stage allocates %d objects a call at factor 1, %d at factor 2: the count depends on the blocks", allocs[0], allocs[1])
	}
}

// TestInTransitStatsAllocatesFlat is the bucket-side guard of the
// hybrid statistics route: once a transit scratch has grown, the
// in-transit stage folds every partial model into the scratch's model
// and allocates only the derived map it returns. Before, it decoded
// each payload into a fresh model and combined it into another.
func TestInTransitStatsAllocatesFlat(t *testing.T) {
	const step = 3
	st := &StatsHybrid{}
	rng := rand.New(rand.NewSource(7))
	payloads := make([][]byte, 4)
	for r := range payloads {
		mo := stats.NewModel()
		for _, name := range sim.VarNames {
			for range 50 {
				mo.Var(name).Update(rng.NormFloat64())
			}
		}
		payloads[r] = mo.AppendMarshal(nil)
	}
	want := stats.NewModel()
	if err := stats.AggregateSerial(want, payloads); err != nil {
		t.Fatal(err)
	}
	res, err := st.InTransit(step, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want.DeriveAll()) {
		t.Fatal("the in-transit stage derives differently from stats.AggregateSerial")
	}

	var sink map[string]stats.Derived
	resultAllocs := testing.AllocsPerRun(20, func() {
		sink = make(map[string]stats.Derived, len(sim.VarNames))
		for _, name := range sim.VarNames {
			sink[name] = stats.Derived{}
		}
	})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := st.InTransit(step, payloads); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v objects a call; the derived map alone is %v", allocs, resultAllocs)
	if allocs > resultAllocs {
		t.Errorf("the in-transit stage allocates %v objects a call on a warm scratch, its derived map %v", allocs, resultAllocs)
	}
}
