package mergetree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"insitu/internal/grid"
)

// tinyGraph builds the 4-vertex example: maxima a(id0,val5) and
// b(id1,val4) merge at c(id2,val3), root d(id3,val2).
func tinyGraph() (map[int64]float64, [][2]int64) {
	values := map[int64]float64{0: 5, 1: 4, 2: 3, 3: 2}
	edges := [][2]int64{{0, 2}, {1, 2}, {2, 3}}
	return values, edges
}

// roots returns the nodes of tr with no Down in descending sweep
// order: one for a connected domain, a forest for a disconnected one.
func roots(tr *Tree) []int {
	return tr.nodes(func(i int, _ int32) bool { return tr.Down[i] < 0 })
}

func TestFromGraphTiny(t *testing.T) {
	values, edges := tinyGraph()
	tr, err := fromGraph(values, edges)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("want 4 nodes, got %d", tr.Len())
	}
	if rs := roots(tr); len(rs) != 1 || tr.IDs[rs[0]] != 3 {
		t.Fatalf("want root id 3, got %v", roots(tr))
	}
	c := slices.Index(tr.IDs, 2)
	if saddles := tr.Saddles(); len(saddles) != 1 || saddles[0] != c {
		t.Fatalf("vertex 2 should be the one saddle, got nodes %v", saddles)
	}
	if maxima := tr.Maxima(); len(maxima) != 2 || tr.IDs[maxima[0]] != 0 || tr.IDs[maxima[1]] != 1 {
		t.Errorf("vertices 0 and 1 should be the maxima, got nodes %v", maxima)
	}
	for _, id := range []int64{0, 1} {
		if int(tr.Down[slices.Index(tr.IDs, id)]) != c {
			t.Errorf("vertex %d should point down to 2", id)
		}
	}
	if int(tr.Down[c]) != slices.Index(tr.IDs, 3) {
		t.Errorf("saddle should point down to root")
	}
}

func TestFromGraphDisconnected(t *testing.T) {
	values := map[int64]float64{0: 5, 1: 4, 2: 3, 3: 2}
	edges := [][2]int64{{0, 1}, {2, 3}}
	tr, err := fromGraph(values, edges)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots(tr)) != 2 {
		t.Fatalf("want 2 roots for disconnected graph, got %d", len(roots(tr)))
	}
}

func TestFromGraphUndeclaredVertex(t *testing.T) {
	if _, err := fromGraph(map[int64]float64{0: 1}, [][2]int64{{0, 9}}); err == nil {
		t.Fatal("want error for edge referencing undeclared vertex")
	}
}

// TestFromField2D checks the Fig. 3 style 2-D example: two hills
// merging at a saddle.
func TestFromField2D(t *testing.T) {
	g := grid.NewBox(5, 1, 1)
	f := grid.NewField("f", g)
	// Profile: 1 5 2 4 1  -> maxima at x=1 (5) and x=3 (4), saddle at
	// x=2 (2), minima at the ends.
	for i, v := range []float64{1, 5, 2, 4, 1} {
		f.Set(i, 0, 0, v)
	}
	tr := FromField(f, g)
	maxima := tr.Maxima()
	if len(maxima) != 2 {
		t.Fatalf("want 2 maxima, got %d", len(maxima))
	}
	if tr.Values[maxima[0]] != 5 || tr.Values[maxima[1]] != 4 {
		t.Fatalf("maxima values wrong: %v %v", tr.Values[maxima[0]], tr.Values[maxima[1]])
	}
	saddles := tr.Saddles()
	if len(saddles) != 1 || tr.Values[saddles[0]] != 2 {
		t.Fatalf("want single saddle at value 2, got nodes %v", saddles)
	}
	rs := roots(tr)
	if len(rs) != 1 {
		t.Fatalf("want single root, got %d", len(rs))
	}
	// Root is the global minimum: value 1, and by the id tie-break the
	// later of the two 1s processed... both have value 1; the sweep
	// order puts the smaller id first, so the root (last processed) is
	// the larger id.
	if tr.Values[rs[0]] != 1 || tr.IDs[rs[0]] != 4 {
		t.Fatalf("root should be vertex 4 at value 1, got vertex %d at %g", tr.IDs[rs[0]], tr.Values[rs[0]])
	}
}

// randomField builds a deterministic pseudo-random field over the box.
func randomField(rng *rand.Rand, b grid.Box) *grid.Field {
	f := grid.NewField("r", b)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	return f
}

// smoothField builds a field with large-scale structure so features
// span block boundaries.
func smoothField(b grid.Box, phase float64) *grid.Field {
	f := grid.NewField("s", b)
	d := b.Dims()
	for idx := range f.Data {
		i, j, k := b.Point(idx)
		x := float64(i) / float64(d[0])
		y := float64(j) / float64(max(d[1], 2))
		z := float64(k) / float64(max(d[2], 2))
		f.Data[idx] = math.Sin(6*x+phase)*math.Cos(5*y) + 0.5*math.Sin(4*z+2*phase) + 0.3*math.Sin(13*x*y+phase)
	}
	return f
}

func TestAugmentedTreeBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := grid.NewBox(9, 7, 5)
	f := randomField(rng, b)
	tr := FromField(f, b)
	if tr.Len() != b.Size() {
		t.Fatalf("augmented tree must contain every vertex: %d vs %d", tr.Len(), b.Size())
	}
	if len(roots(tr)) != 1 {
		t.Fatalf("connected domain must give one root, got %d", len(roots(tr)))
	}
	// Nodes are in strictly descending sweep order, and every down
	// link points further down it.
	for i, d := range tr.Down {
		if i > 0 && !Above(tr.Values[i-1], tr.IDs[i-1], tr.Values[i], tr.IDs[i]) {
			t.Fatalf("nodes %d and %d are not in sweep order", i-1, i)
		}
		if d >= 0 && int(d) <= i {
			t.Fatalf("down link does not descend: node %d -> %d", i, d)
		}
	}
	// Node count identity: every non-root node has exactly one down
	// edge, so edges == nodes-1 for a single tree.
	arcs := tr.Arcs()
	if len(arcs) != tr.Len()-1 {
		t.Fatalf("tree must have n-1 arcs: %d vs %d nodes", len(arcs), tr.Len())
	}
}

// TestReduceKeepsCriticals verifies reduction drops exactly the
// regular vertices.
func TestReduceKeepsCriticals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := grid.NewBox(8, 8, 3)
	f := randomField(rng, b)
	tr := FromField(f, b)
	red := Reduce(tr, nil)
	ups := tr.upCounts()
	for _, id := range red.IDs {
		if i := slices.Index(tr.IDs, id); ups[i] == 1 && tr.Down[i] >= 0 {
			t.Fatalf("regular vertex %d survived reduction", id)
		}
	}
	// Maxima and saddles must be preserved with identical structure.
	if len(red.Maxima()) != len(tr.Maxima()) {
		t.Fatalf("maxima count changed: %d vs %d", len(red.Maxima()), len(tr.Maxima()))
	}
	if len(red.Saddles()) != len(tr.Saddles()) {
		t.Fatalf("saddle count changed: %d vs %d", len(red.Saddles()), len(tr.Saddles()))
	}
	if len(roots(red)) != len(roots(tr)) {
		t.Fatalf("root count changed")
	}
}

// criticalReduce reduces a tree to critical points only.
func criticalReduce(t *Tree) *Tree {
	return Reduce(t, nil)
}

// glueFromDecomp runs the full hybrid pipeline in-process: local
// subtrees per block, then Glue, sweeping for eviction every 64 edges
// or (evict false) only once, after the last edge; policy selects the
// boundary augmentation.
func glueFromDecomp(t *testing.T, f *grid.Field, px, py, pz int, policy BoundaryPolicy, evict bool) *Tree {
	t.Helper()
	dc, err := grid.NewDecomp(f.Box, px, py, pz)
	if err != nil {
		t.Fatal(err)
	}
	var subtrees []*Subtree
	for r := 0; r < dc.Ranks(); r++ {
		owned := dc.Block(r)
		ext := owned.Grow(1).Intersect(f.Box)
		local := f.Extract(ext)
		st, err := LocalSubtree(local, f.Box, owned, r, policy)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip the wire format while we are at it.
		st2 := new(Subtree)
		if _, err := st2.Unmarshal(st.AppendMarshal(nil)); err != nil {
			t.Fatal(err)
		}
		subtrees = append(subtrees, st2)
	}
	b := &Builder{sweepEvery: 64}
	if !evict {
		b.sweepEvery = math.MaxInt
	}
	glued, _, err := b.Glue(subtrees)
	if err != nil {
		t.Fatal(err)
	}
	return glued
}

func TestDistributedEqualsSerial(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
		px, py, pz int
	}{
		{12, 10, 8, 2, 2, 2},
		{16, 9, 1, 4, 3, 1},
		{20, 20, 6, 3, 2, 2},
		{7, 7, 7, 2, 2, 2},
	}
	for ci, c := range cases {
		b := grid.NewBox(c.nx, c.ny, c.nz)
		for _, mk := range []func() *grid.Field{
			func() *grid.Field { return randomField(rand.New(rand.NewSource(int64(ci)+11)), b) },
			func() *grid.Field { return smoothField(b, float64(ci)) },
		} {
			f := mk()
			serial := criticalReduce(FromField(f, b))
			glued := criticalReduce(glueFromDecomp(t, f, c.px, c.py, c.pz, KeepSharedBoundary, false))
			if !equalTrees(serial, glued) {
				t.Fatalf("case %d: distributed tree differs from serial (%d vs %d nodes)",
					ci, glued.Len(), serial.Len())
			}
		}
	}
	// The pipeline's policy, KeepOverlapMaxima, over random, tied and
	// smooth fields, decompositions whose blocks share edges and
	// corners, and eviction on and off.
	rng := rand.New(rand.NewSource(35))
	decomps := [][3]int{{2, 1, 1}, {2, 2, 1}, {2, 2, 2}, {3, 2, 1}, {4, 3, 1}, {3, 3, 2}}
	globals := []grid.Box{grid.NewBox(12, 10, 8), grid.NewBox(9, 7, 5), grid.NewBox(14, 6, 3)}
	for trial := 0; trial < 9; trial++ {
		b := globals[trial%len(globals)]
		var f *grid.Field
		switch trial % 3 {
		case 0:
			f = randomField(rng, b)
		case 1:
			f = tiedField(rng, b)
		default:
			f = smoothField(b, rng.Float64()*3)
		}
		serial := criticalReduce(FromField(f, b))
		for _, pd := range decomps {
			for _, evict := range []bool{false, true} {
				glued := criticalReduce(glueFromDecomp(t, f, pd[0], pd[1], pd[2], KeepOverlapMaxima, evict))
				if !equalTrees(serial, glued) {
					t.Fatalf("trial %d global %v decomp %v evict %v: distributed tree differs from serial (%d vs %d nodes)",
						trial, b, pd, evict, glued.Len(), serial.Len())
				}
			}
		}
	}
}

// FuzzGlueEqualsSerial: a fuzzed field over a fuzzed box and
// decomposition glues, from KeepOverlapMaxima subtrees, to the serial
// tree's critical points. The first five bytes choose the box, the
// decomposition and eviction; the rest are the values, repeated with a
// small offset per repeat when the box has more cells.
func FuzzGlueEqualsSerial(f *testing.F) {
	f.Add([]byte{7, 5, 3, 1, 1, 9, 2, 200, 4, 4, 17, 3, 99, 0, 5})
	f.Add([]byte{11, 11, 2, 3, 0, 1, 2, 1, 2, 1, 2, 1})
	f.Add([]byte{4, 4, 4, 2, 3, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) < 6 {
			return
		}
		b := grid.NewBox(2+int(p[0])%11, 2+int(p[1])%9, 1+int(p[2])%5)
		d := b.Dims()
		pd := [3]int{1 + int(p[3])%min(d[0], 4), 1 + int(p[3]>>2)%min(d[1], 3), 1 + int(p[3]>>4)%min(d[2], 2)}
		evict := p[4]&1 == 1
		vals := p[5:]
		field := grid.NewField("f", b)
		for i := range field.Data {
			field.Data[i] = float64(vals[i%len(vals)]) + float64(i/len(vals))/256
		}
		serial := criticalReduce(FromField(field, b))
		if glued := criticalReduce(glueFromDecomp(t, field, pd[0], pd[1], pd[2], KeepOverlapMaxima, evict)); !equalTrees(serial, glued) {
			t.Fatalf("global %v decomp %v evict %v: distributed tree differs from serial (%d vs %d nodes)", b, pd, evict, glued.Len(), serial.Len())
		}
	})
}

func TestStreamingEvictionEqualsSerial(t *testing.T) {
	b := grid.NewBox(18, 14, 10)
	f := smoothField(b, 0.4)
	serial := criticalReduce(FromField(f, b))
	glued := glueFromDecomp(t, f, 3, 2, 2, KeepSharedBoundary, true)
	if !equalTrees(serial, criticalReduce(glued)) {
		t.Fatal("streaming eviction changed the tree")
	}
}

// TestStreamingEvictionBoundsMemory verifies the in-transit stage's
// low-memory property: with eviction, the peak resident vertex count
// stays well below the total number of streamed vertices.
func TestStreamingEvictionBoundsMemory(t *testing.T) {
	b := grid.NewBox(24, 24, 12)
	f := smoothField(b, 1.3)
	dc, err := grid.NewDecomp(b, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var subtrees []*Subtree
	for r := 0; r < dc.Ranks(); r++ {
		owned := dc.Block(r)
		ext := owned.Grow(1).Intersect(b)
		st, err := LocalSubtree(f.Extract(ext), b, owned, r, KeepSharedBoundary)
		if err != nil {
			t.Fatal(err)
		}
		subtrees = append(subtrees, st)
	}
	_, stats, err := (&Builder{sweepEvery: 128}).Glue(subtrees)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted == 0 {
		t.Fatal("eviction never triggered")
	}
	if stats.PeakLive >= stats.Declared {
		t.Fatalf("no memory reduction: peak %d of %d declared", stats.PeakLive, stats.Declared)
	}
	t.Logf("declared=%d peak=%d evicted=%d", stats.Declared, stats.PeakLive, stats.Evicted)
}

// TestBoundaryAblation shows that dropping the boundary augmentation
// breaks gluing for features spanning blocks (the design choice the
// paper's §III discusses).
func TestBoundaryAblation(t *testing.T) {
	b := grid.NewBox(16, 8, 4)
	f := smoothField(b, 0.9)
	serial := criticalReduce(FromField(f, b))
	broken := criticalReduce(glueFromDecomp(t, f, 4, 2, 1, KeepNone, false))
	if equalTrees(serial, broken) {
		t.Fatal("KeepNone unexpectedly produced the correct tree; ablation field too simple")
	}
}

func TestSubtreeMarshalRoundTrip(t *testing.T) {
	st := &Subtree{
		Rank:  7,
		Block: grid.Box{Lo: [3]int{1, 2, 3}, Hi: [3]int{4, 5, 6}},
		Verts: []SubtreeVert{{ID: 10, Value: 3.5}, {ID: 4, Value: -1.25}},
		Edges: []Arc{{Hi: 10, Lo: 4}},
	}
	got := new(Subtree)
	if _, err := got.Unmarshal(st.AppendMarshal(nil)); err != nil {
		t.Fatal(err)
	}
	if got.Rank != st.Rank || got.Block != st.Block ||
		len(got.Verts) != 2 || got.Verts[0] != st.Verts[0] || got.Verts[1] != st.Verts[1] ||
		len(got.Edges) != 1 || got.Edges[0] != st.Edges[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestUnmarshalSubtreeErrors(t *testing.T) {
	if _, err := new(Subtree).Unmarshal(nil); err == nil {
		t.Fatal("want error for empty payload")
	}
	st := &Subtree{Verts: []SubtreeVert{{ID: 1, Value: 2}}}
	p := st.AppendMarshal(nil)
	if _, err := new(Subtree).Unmarshal(p[:len(p)-4]); err == nil {
		t.Fatal("want error for truncated payload")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := new(Builder)
	if err := b.declareVertex(1, 2.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.addEdge(1, 99); err == nil {
		t.Fatal("want error for undeclared endpoint")
	}
	if err := b.declareVertex(1, 3.0, 1); err == nil {
		t.Fatal("want error for conflicting redeclaration")
	}
	if err := b.declareVertex(2, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.addEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.addEdge(1, 2); err == nil {
		t.Fatal("want error for exceeding declared degree")
	}
}

func TestBuilderUnfinishedEdges(t *testing.T) {
	b := new(Builder)
	if err := b.declareVertex(1, 2.0, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.declareVertex(2, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.addEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.finish(); err == nil {
		t.Fatal("want error when declared edges remain unprocessed")
	}
}

// TestGlueArbitraryEdgeOrder verifies the arbitrary-order property the
// paper requires of the in-transit algorithm: without eviction, any
// permutation of edge processing yields the same tree. Glue feeds edges
// in sorted order, so the test drives the builder's primitives.
func TestGlueArbitraryEdgeOrder(t *testing.T) {
	b := grid.NewBox(10, 10, 4)
	f := smoothField(b, 2.2)
	tr := FromField(f, b)
	st := packSubtree(Reduce(tr, nil), 0, b)

	want, err := glueSerial([]*Subtree{st})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		shuffled := &Subtree{Rank: st.Rank, Block: st.Block, Verts: st.Verts,
			Edges: append([]Arc{}, st.Edges...)}
		rng.Shuffle(len(shuffled.Edges), func(i, j int) {
			shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
		})
		b := new(Builder)
		for _, v := range shuffled.Verts {
			if err := b.declareVertex(v.ID, v.Value, v.Degree); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range shuffled.Edges {
			if err := b.addEdge(e.Hi, e.Lo); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := b.finish()
		if err != nil {
			t.Fatal(err)
		}
		if !equalTrees(want, got) {
			t.Fatalf("trial %d: edge order changed the result", trial)
		}
	}
}
