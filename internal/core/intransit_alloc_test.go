package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
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
		payloads[r] = st.Marshal()
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
