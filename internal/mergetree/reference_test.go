package mergetree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"insitu/internal/grid"
)

// The pointer-graph engine the arrays replaced, kept as the reference
// the array engine is held to: a streaming builder over a map of linked
// nodes, and the branch decomposition, simplification and feature
// extraction over maps keyed by node. Trees cross between the two as
// (id, value, down id) triples.

type refNode struct {
	id      int64
	val     float64
	down    *refNode
	ups     []*refNode
	pending int
}

type refBuilder struct {
	nodes map[int64]*refNode
	log   []refNode // evicted nodes, down frozen in pending
	wmVal float64
	wmID  int64
	wmSet bool
	stats StreamStats
}

func (b *refBuilder) declare(id int64, val float64, degree int) bool {
	if n, ok := b.nodes[id]; ok {
		n.pending += degree
		return n.val == val
	}
	b.nodes[id] = &refNode{id: id, val: val, pending: degree}
	b.stats.Declared++
	b.stats.PeakLive = max(b.stats.PeakLive, len(b.nodes))
	return true
}

func (b *refBuilder) addEdge(hi, lo int64) bool {
	u, v := b.nodes[hi], b.nodes[lo]
	if u == nil || v == nil {
		return false
	}
	u.pending--
	v.pending--
	if u.pending < 0 || v.pending < 0 {
		return false
	}
	if u == v {
		return true
	}
	if !Above(u.val, u.id, v.val, v.id) {
		u, v = v, u
	}
	for {
		b.stats.SpliceOps++
		if u == v {
			return true
		}
		d := u.down
		if d == nil {
			u.down = v
			return true
		}
		if d == v {
			return true
		}
		if Above(d.val, d.id, v.val, v.id) {
			u = d
			continue
		}
		u.down = v
		u = v
		v = d
	}
}

func (b *refBuilder) sweep() {
	if !b.wmSet {
		return
	}
	for id, n := range b.nodes {
		if n.pending != 0 || n.down == nil || Above(b.wmVal, b.wmID, n.down.val, n.down.id) {
			continue
		}
		b.log = append(b.log, refNode{id: n.id, val: n.val, pending: int(n.down.id)})
		delete(b.nodes, id)
		b.stats.Evicted++
	}
}

// finish returns the glued tree as triples: resident nodes with their
// current arcs, evicted ones with the arcs the log froze.
func (b *refBuilder) finish() (*Tree, StreamStats, bool) {
	var ids []int64
	vals := map[int64]float64{}
	downs := map[int64]int64{}
	for id, n := range b.nodes {
		if n.pending != 0 {
			return nil, b.stats, false
		}
		ids = append(ids, id)
		vals[id], downs[id] = n.val, -1
		if n.down != nil {
			downs[id] = n.down.id
		}
	}
	for _, r := range b.log {
		ids = append(ids, r.id)
		vals[r.id], downs[r.id] = r.val, int64(r.pending)
	}
	return triplesTree(ids, vals, downs), b.stats, true
}

// triplesTree sorts (id, value, down id) triples into a Tree.
func triplesTree(ids []int64, vals map[int64]float64, downs map[int64]int64) *Tree {
	sort.Slice(ids, func(i, j int) bool { return Above(vals[ids[i]], ids[i], vals[ids[j]], ids[j]) })
	at := make(map[int64]int32, len(ids))
	for i, id := range ids {
		at[id] = int32(i)
	}
	t := &Tree{}
	for _, id := range ids {
		d := int32(-1)
		if dd := downs[id]; dd >= 0 {
			d = at[dd]
		}
		t.IDs, t.Values, t.Down = append(t.IDs, id), append(t.Values, vals[id]), append(t.Down, d)
	}
	return t
}

// refGlue is Glue on the reference builder: the same declaration,
// k-way edge merge, watermark and sweep schedule.
func refGlue(subtrees []*Subtree, sweepEvery int) (*Tree, StreamStats, bool) {
	b := &refBuilder{nodes: map[int64]*refNode{}}
	if sweepEvery <= 0 {
		sweepEvery = 4096
	}
	type cur struct {
		st        *Subtree
		vals      map[int64]float64
		pos, vpos int
	}
	var curs, live []*cur
	for _, st := range subtrees {
		c := &cur{st: st, vals: map[int64]float64{}}
		for _, v := range st.Verts {
			c.vals[v.ID] = v.Value
		}
		curs = append(curs, c)
		if len(st.Edges) > 0 {
			live = append(live, c)
		}
	}
	processed := 0
	for len(live) > 0 {
		best := 0
		lo := func(c *cur) (float64, int64) { e := c.st.Edges[c.pos]; return c.vals[e.Lo], e.Lo }
		bv, bi := lo(live[0])
		for i := 1; i < len(live); i++ {
			if v, id := lo(live[i]); Above(v, id, bv, bi) {
				best, bv, bi = i, v, id
			}
		}
		for _, c := range curs {
			for ; c.vpos < len(c.st.Verts); c.vpos++ {
				v := c.st.Verts[c.vpos]
				if Above(bv, bi, v.Value, v.ID) {
					break
				}
				if !b.declare(v.ID, v.Value, v.Degree) {
					return nil, b.stats, false
				}
			}
		}
		c := live[best]
		e := c.st.Edges[c.pos]
		if !b.addEdge(e.Hi, e.Lo) {
			return nil, b.stats, false
		}
		if c.pos++; c.pos == len(c.st.Edges) {
			live = append(live[:best], live[best+1:]...)
		}
		processed++
		b.wmVal, b.wmID, b.wmSet = bv, bi, true
		if processed%sweepEvery == 0 {
			b.sweep()
		}
	}
	for _, c := range curs {
		for ; c.vpos < len(c.st.Verts); c.vpos++ {
			v := c.st.Verts[c.vpos]
			if !b.declare(v.ID, v.Value, v.Degree) {
				return nil, b.stats, false
			}
		}
	}
	b.sweep()
	return b.finish()
}

// refNodes links a tree's nodes, ups in node order.
func refNodes(t *Tree) map[int64]*refNode {
	nodes := make(map[int64]*refNode, t.Len())
	for i, id := range t.IDs {
		nodes[id] = &refNode{id: id, val: t.Values[i]}
	}
	for i, d := range t.Down {
		if d >= 0 {
			n, dn := nodes[t.IDs[i]], nodes[t.IDs[d]]
			n.down = dn
			dn.ups = append(dn.ups, n)
		}
	}
	return nodes
}

// refSimplify is persistence simplification over linked nodes: sort,
// branch maxima in a map, branches, dead maxima, survivors.
func refSimplify(t *Tree, eps float64) *Tree {
	nodes := refNodes(t)
	order := make([]*refNode, 0, len(nodes))
	for _, n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return Above(order[i].val, order[i].id, order[j].val, order[j].id) })
	bm := map[*refNode]*refNode{}
	for _, n := range order {
		if len(n.ups) == 0 {
			bm[n] = n
			continue
		}
		var best *refNode
		for _, u := range n.ups {
			if um := bm[u]; best == nil || Above(um.val, um.id, best.val, best.id) {
				best = um
			}
		}
		bm[n] = best
	}
	dead := map[*refNode]bool{}
	for _, n := range order {
		if n.down == nil && !(math.Inf(1) >= eps) {
			dead[bm[n]] = true
		}
		if len(n.ups) < 2 {
			continue
		}
		for _, u := range n.ups {
			if um := bm[u]; um != bm[n] && !(um.val-n.val >= eps) {
				dead[um] = true
			}
		}
	}
	var ids []int64
	vals := map[int64]float64{}
	downs := map[int64]int64{}
	for _, n := range order {
		if dead[bm[n]] {
			continue
		}
		ids = append(ids, n.id)
		vals[n.id], downs[n.id] = n.val, -1
		if n.down != nil {
			downs[n.id] = n.down.id
		}
	}
	return triplesTree(ids, vals, downs)
}

// refFeatures segments through a memoized recursive walk down linked
// nodes and aggregates members per label in a map.
func refFeatures(t *Tree, threshold float64) []Feature {
	nodes := refNodes(t)
	memo := map[*refNode]int64{}
	var root func(n *refNode) int64
	root = func(n *refNode) int64 {
		if l, ok := memo[n]; ok {
			return l
		}
		l := n.id
		if n.down != nil && n.down.val >= threshold {
			l = root(n.down)
		}
		memo[n] = l
		return l
	}
	agg := map[int64]*Feature{}
	for id, n := range nodes {
		if n.val < threshold {
			continue
		}
		l := root(n)
		f, ok := agg[l]
		if !ok {
			f = &Feature{Label: l, MaxID: id, MaxValue: n.val}
			agg[l] = f
		}
		f.Size++
		if Above(n.val, id, f.MaxValue, f.MaxID) {
			f.MaxID, f.MaxValue = id, n.val
		}
	}
	out := []Feature{}
	for _, f := range agg {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// TestArrayEngineMatchesPointerEngine is the property behind the one
// engine: on fuzzed fields, decompositions and sweep schedules, gluing
// on one reused Builder gives the reference builder's tree and its
// StreamStats to the last counter (the topology digests carry them),
// and Simplify and Features on one reused Scratch give the reference's
// tree and features.
func TestArrayEngineMatchesPointerEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	decomps := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}, {3, 2, 1}}
	var b Builder
	var s Scratch
	for trial := 0; trial < 24; trial++ {
		global := grid.NewBox(4+rng.Intn(9), 4+rng.Intn(7), 2+rng.Intn(4))
		var f *grid.Field
		switch trial % 3 {
		case 0:
			f = randomField(rng, global)
		case 1:
			f = tiedField(rng, global)
		default:
			f = smoothField(global, rng.Float64()*3)
		}
		pd := decomps[trial%len(decomps)]
		dc, err := grid.NewDecomp(global, pd[0], pd[1], pd[2])
		if err != nil {
			t.Fatal(err)
		}
		var subtrees []*Subtree
		for r := 0; r < dc.Ranks(); r++ {
			st, err := LocalSubtree(f, global, dc.Block(r), r, KeepSharedBoundary)
			if err != nil {
				t.Fatal(err)
			}
			subtrees = append(subtrees, st)
		}
		// Sweep after the last edge only, at the default cadence, often.
		for _, every := range []int{math.MaxInt, 0, 1 + rng.Intn(40)} {
			b.sweepEvery = every
			want, wantStats, ok := refGlue(subtrees, every)
			got, gotStats, err := b.Glue(subtrees)
			if !ok {
				t.Fatalf("trial %d sweep every %d: reference glue failed", trial, every)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !equalTrees(got, want) || gotStats != wantStats {
				t.Fatalf("trial %d sweep every %d: glue gives %d nodes %+v, the reference %d nodes %+v",
					trial, every, got.Len(), gotStats, want.Len(), wantStats)
			}
			for _, eps := range []float64{0, 0.05, 0.3, math.Inf(1)} {
				if simp := s.Simplify(got, eps); !equalTrees(simp, refSimplify(want, eps)) {
					t.Fatalf("trial %d sweep every %d eps %g: Simplify differs from the reference", trial, every, eps)
				}
			}
			thr := f.Data[rng.Intn(len(f.Data))]
			if fs, ref := s.Features(got, thr), refFeatures(want, thr); !slices.Equal(fs, ref) {
				t.Fatalf("trial %d threshold %g: features %v, the reference %v", trial, thr, fs, ref)
			}
		}
	}
}
