package mergetree

import (
	"fmt"
	"sort"
)

// The streaming builder implements the in-transit stage: it aggregates
// subtrees into the global merge tree while processing vertices and
// edges in arbitrary order, subject to two rules from the paper:
// a vertex must be declared before any edge that contains it, and a
// vertex is *finalized* once its last incident edge has been
// processed. Finalized vertices whose tree-position can no longer
// change are evicted from memory and written to an output log, keeping
// the in-memory footprint far below the total tree size.

// bnode is the builder's working vertex record.
type bnode struct {
	id      int64
	val     float64
	down    *bnode
	pending int // declared incident edges not yet processed
	evicted bool
}

// EvictRecord is one finalized vertex written to the output log:
// its identity, value, and final downward arc (-1 for none known at
// eviction, which only happens for isolated vertices).
type EvictRecord struct {
	ID    int64
	Value float64
	Down  int64
}

// StreamStats reports the memory behaviour of a streaming aggregation.
type StreamStats struct {
	Declared  int // total vertices declared
	Edges     int // total edges processed
	Evicted   int // vertices evicted before Finish
	PeakLive  int // maximum simultaneously resident vertices
	SpliceOps int // chain-walk steps, the algorithm's work measure
}

// Builder incrementally constructs a merge tree from streamed
// vertices and edges.
type Builder struct {
	nodes map[int64]*bnode
	log   []EvictRecord

	// watermark is the sweep position at or below which all future
	// edge lower-endpoints are guaranteed to lie. It advances under
	// sorted feeding in Glue.
	wmVal   float64
	wmID    int64
	wmSet   bool
	evictOn bool

	stats StreamStats
}

// NewBuilder creates an empty streaming builder. evict enables
// eviction of finalized vertices: Glue advances the watermark as it
// feeds edges in sorted order.
func NewBuilder(evict bool) *Builder {
	return &Builder{nodes: make(map[int64]*bnode), evictOn: evict}
}

// DeclareVertex announces a vertex with `degree` incident edges in
// this producer's stream. The same vertex may be declared by several
// producers (shared boundary vertices); degrees accumulate and values
// must agree.
func (b *Builder) DeclareVertex(id int64, val float64, degree int) error {
	if n, ok := b.nodes[id]; ok {
		if n.val != val {
			return fmt.Errorf("mergetree: vertex %d declared with conflicting values %g and %g", id, n.val, val)
		}
		n.pending += degree
		return nil
	}
	b.nodes[id] = &bnode{id: id, val: val, pending: degree}
	b.stats.Declared++
	if live := len(b.nodes); live > b.stats.PeakLive {
		b.stats.PeakLive = live
	}
	return nil
}

// Evicted vertices stay linked into the chains (their downward arcs
// are frozen by the watermark invariant, and no future splice can land
// adjacent to them), so walks simply traverse them. Rewriting pointers
// past evicted vertices would destroy true augmented-tree arcs.

// AddEdge merges the chains of two declared vertices, maintaining the
// invariant that descending down-pointer chains order all vertices
// known to share a superlevel component.
func (b *Builder) AddEdge(hi, lo int64) error {
	u, ok := b.nodes[hi]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", hi)
	}
	v, ok := b.nodes[lo]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", lo)
	}
	u.pending--
	v.pending--
	if u.pending < 0 || v.pending < 0 {
		return fmt.Errorf("mergetree: vertex finalized before its last edge (%d,%d)", hi, lo)
	}
	if u == v {
		return nil
	}
	if !Above(u.val, u.id, v.val, v.id) {
		u, v = v, u
	}
	// Splice v into u's chain: walk down from u until v's slot.
	for {
		b.stats.SpliceOps++
		if u == v {
			return nil
		}
		d := u.down
		if d == nil {
			u.down = v
			return nil
		}
		if d == v {
			return nil
		}
		if Above(d.val, d.id, v.val, v.id) {
			u = d
			continue
		}
		// v belongs between u and d; splice and continue merging the
		// old tail below v.
		u.down = v
		u = v
		v = d
	}
}

// evictable reports whether vertex n can no longer change: all its
// edges are processed, and its downward arc ends at or above the
// watermark, so no future edge can splice between them.
func (b *Builder) evictable(n *bnode) bool {
	if n.pending != 0 || n.evicted {
		return false
	}
	d := n.down
	if d == nil {
		return false // roots stay resident until Finish
	}
	return !Above(b.wmVal, b.wmID, d.val, d.id)
}

// sweep evicts every currently evictable vertex.
func (b *Builder) sweep() {
	if !b.wmSet {
		return
	}
	for id, n := range b.nodes {
		if !b.evictable(n) {
			continue
		}
		b.log = append(b.log, EvictRecord{ID: n.id, Value: n.val, Down: n.down.id})
		n.evicted = true
		delete(b.nodes, id)
		b.stats.Evicted++
	}
}

// Finish assembles the final merge tree from the resident vertices
// plus the eviction log.
func (b *Builder) Finish() (*Tree, StreamStats, error) {
	for id, n := range b.nodes {
		if n.pending != 0 {
			return nil, b.stats, fmt.Errorf("mergetree: vertex %d still has %d unprocessed edges", id, n.pending)
		}
	}
	t := &Tree{Nodes: make(map[int64]*Node, len(b.nodes)+len(b.log))}
	get := func(id int64, val float64) *Node {
		n, ok := t.Nodes[id]
		if !ok {
			n = &Node{ID: id, Value: val}
			t.Nodes[id] = n
		}
		return n
	}
	type link struct{ hi, lo int64 }
	var links []link
	for _, n := range b.nodes {
		get(n.id, n.val)
		if n.down != nil {
			links = append(links, link{n.id, n.down.id})
		}
	}
	for _, r := range b.log {
		get(r.ID, r.Value)
		if r.Down >= 0 {
			links = append(links, link{r.ID, r.Down})
		}
	}
	for _, l := range links {
		hi := t.Nodes[l.hi]
		lo, ok := t.Nodes[l.lo]
		if !ok {
			return nil, b.stats, fmt.Errorf("mergetree: eviction log references missing vertex %d", l.lo)
		}
		hi.Down = lo
		lo.Ups = append(lo.Ups, hi)
	}
	for _, n := range t.Nodes {
		if n.Down == nil {
			t.Roots = append(t.Roots, n)
		}
	}
	sortNodes(t.Roots)
	return t, b.stats, nil
}

// GlueOptions configures the in-transit aggregation driver.
type GlueOptions struct {
	// Evict enables memory-bounded streaming with the sorted-edge
	// protocol. With eviction off, edges may be processed in any order.
	Evict bool
	// SweepEvery triggers an eviction sweep after this many edges
	// (default 4096) in addition to watermark advances.
	SweepEvery int
}

// Glue aggregates the reduced subtrees of all blocks into the global
// merge tree — the serial in-transit stage of the hybrid topology
// algorithm. With opts.Evict it feeds edges in globally descending
// order of their lower endpoints (a k-way merge over the per-block
// sorted edge lists) and advances the watermark as it goes, so the
// builder can evict finalized vertices and keep its resident set
// small.
func Glue(subtrees []*Subtree, opts GlueOptions) (*Tree, StreamStats, error) {
	b := NewBuilder(opts.Evict)

	if !opts.Evict {
		// Arbitrary-order mode: declare everything, then feed edges in
		// whatever order the subtrees carry them.
		for _, st := range subtrees {
			for _, v := range st.Verts {
				if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
					return nil, b.stats, err
				}
			}
		}
		for _, st := range subtrees {
			for _, e := range st.Edges {
				if err := b.AddEdge(e.Hi, e.Lo); err != nil {
					return nil, b.stats, err
				}
			}
		}
		return b.Finish()
	}

	// Streaming mode: interleave per-block vertex declarations with a
	// k-way merge of the per-block edge lists by descending lower
	// endpoint (packSubtree sorts both lists that way). Before an edge
	// at sweep position L is processed, every block declares its
	// vertices down to L, so shared vertices accumulate their full
	// degree before their first edge and the resident set tracks the
	// sweep front instead of the whole tree.
	sweepEvery := opts.SweepEvery
	if sweepEvery <= 0 {
		sweepEvery = 4096
	}
	type cursor struct {
		st   *Subtree
		vals map[int64]float64
		pos  int // next edge
		vpos int // next undeclared vertex
	}
	cursors := make([]*cursor, 0, len(subtrees))
	for _, st := range subtrees {
		vals := make(map[int64]float64, len(st.Verts))
		for _, v := range st.Verts {
			vals[v.ID] = v.Value
		}
		cursors = append(cursors, &cursor{st: st, vals: vals})
	}
	// declareDown declares all of c's vertices at or above sweep
	// position (val, id).
	declareDown := func(c *cursor, val float64, id int64) error {
		for c.vpos < len(c.st.Verts) {
			v := c.st.Verts[c.vpos]
			if Above(val, id, v.Value, v.ID) {
				break
			}
			if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
				return err
			}
			c.vpos++
		}
		return nil
	}
	loPos := func(c *cursor) (float64, int64) {
		e := c.st.Edges[c.pos]
		return c.vals[e.Lo], e.Lo
	}
	live := make([]*cursor, 0, len(cursors))
	for _, c := range cursors {
		if len(c.st.Edges) > 0 {
			live = append(live, c)
		}
	}
	processed := 0
	for len(live) > 0 {
		// Pick the cursor with the highest next lower endpoint.
		best := 0
		bv, bi := loPos(live[0])
		for i := 1; i < len(live); i++ {
			v, id := loPos(live[i])
			if Above(v, id, bv, bi) {
				best, bv, bi = i, v, id
			}
		}
		// All blocks declare down to the new watermark first.
		for _, c := range cursors {
			if err := declareDown(c, bv, bi); err != nil {
				return nil, b.stats, err
			}
		}
		c := live[best]
		e := c.st.Edges[c.pos]
		if err := b.AddEdge(e.Hi, e.Lo); err != nil {
			return nil, b.stats, err
		}
		c.pos++
		if c.pos == len(c.st.Edges) {
			live = append(live[:best], live[best+1:]...)
		}
		processed++
		b.wmVal, b.wmID, b.wmSet = bv, bi, true
		if processed%sweepEvery == 0 {
			b.sweep()
		}
	}
	// Declare any remaining (isolated) vertices and finish.
	for _, c := range cursors {
		for ; c.vpos < len(c.st.Verts); c.vpos++ {
			v := c.st.Verts[c.vpos]
			if err := b.DeclareVertex(v.ID, v.Value, v.Degree); err != nil {
				return nil, b.stats, err
			}
		}
	}
	b.sweep()
	return b.Finish()
}

// GlueSerial aggregates subtrees by collecting all vertices and edges
// and running the reference graph sweep — the non-streaming baseline
// the streaming aggregation is validated against.
func GlueSerial(subtrees []*Subtree) (*Tree, error) {
	values := make(map[int64]float64)
	var edges [][2]int64
	for _, st := range subtrees {
		for _, v := range st.Verts {
			if old, ok := values[v.ID]; ok && old != v.Value {
				return nil, fmt.Errorf("mergetree: vertex %d has conflicting values %g and %g", v.ID, old, v.Value)
			}
			values[v.ID] = v.Value
		}
		for _, e := range st.Edges {
			edges = append(edges, [2]int64{e.Hi, e.Lo})
		}
	}
	// Deterministic edge order.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return FromGraph(values, edges)
}
