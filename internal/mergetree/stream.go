package mergetree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The streaming builder implements the in-transit stage: it aggregates
// subtrees into the global merge tree while processing vertices and
// edges in arbitrary order, subject to two rules from the paper:
// a vertex must be declared before any edge that contains it, and a
// vertex is *finalized* once its last incident edge has been
// processed. Finalized vertices whose tree-position can no longer
// change are evicted from the resident set, keeping the working set
// far below the total tree size.
//
// Vertices live in int32 slots of flat arrays, in declaration order;
// a chain link is a slot index. The resident set is an id -> slot
// index plus the list of resident slots an eviction sweep scans. An
// evicted vertex leaves both and keeps its slot, whose arc the
// watermark has frozen: the slot arrays are the output log.

// StreamStats reports the memory behaviour of a streaming aggregation.
type StreamStats struct {
	Declared  int // total vertices declared
	Edges     int // total edges processed
	Evicted   int // vertices evicted from the resident set
	PeakLive  int // maximum simultaneously resident vertices
	SpliceOps int // chain-walk steps, the algorithm's work measure
}

// Builder constructs a merge tree from subtrees with Glue; the zero
// value is an empty builder. A Builder is reusable: each Glue empties
// it but keeps its arrays, so a staging bucket that glues every step
// allocates nothing in it after the first. It is not safe for
// concurrent use.
type Builder struct {
	index   map[int64]int32 // resident vertex id -> slot
	id      []int64         // per slot: vertex id
	val     []float64       // per slot: value
	down    []int32         // per slot: next lower slot of its chain, -1 none
	pending []int           // per slot: declared incident edges not yet processed
	live    []int32         // resident slots, for the eviction sweep

	// watermark is the sweep position at or below which all future
	// edge lower-endpoints are guaranteed to lie. Glue sets it as it
	// feeds edges in sorted order; eviction needs it.
	wmVal float64
	wmID  int64
	wmSet bool

	stats StreamStats

	cursors []cursor // Glue's per-subtree read positions
	open    []int    // Glue's cursors with edges left
	rank    []int32  // finish: slot -> node
	tree    Tree     // finish's product, reused

	// sweepEvery triggers an eviction sweep in Glue after this many
	// edges in addition to watermark advances (0 means 4096; the
	// package's stress tests sweep far more often).
	sweepEvery int
}

// reset empties the builder for a new aggregation, keeping its memory.
// A Tree that finish returned before is invalid afterwards.
func (b *Builder) reset() {
	clear(b.index)
	b.id, b.val, b.down, b.pending = b.id[:0], b.val[:0], b.down[:0], b.pending[:0]
	b.live = b.live[:0]
	b.wmVal, b.wmID, b.wmSet = 0, 0, false
	b.stats = StreamStats{}
}

// above reports whether slot u precedes slot v in the sweep order.
func (b *Builder) above(u, v int32) bool {
	return Above(b.val[u], b.id[u], b.val[v], b.id[v])
}

// declareVertex announces a vertex with `degree` incident edges in
// this producer's stream. The same vertex may be declared by several
// producers (shared boundary vertices); degrees accumulate and values
// must agree.
func (b *Builder) declareVertex(id int64, val float64, degree int) error {
	if b.index == nil {
		b.index = make(map[int64]int32)
	}
	if s, ok := b.index[id]; ok {
		if b.val[s] != val {
			return fmt.Errorf("mergetree: vertex %d declared with conflicting values %g and %g", id, b.val[s], val)
		}
		b.pending[s] += degree
		return nil
	}
	if len(b.id) >= math.MaxInt32 {
		return fmt.Errorf("mergetree: more than %d vertices declared", math.MaxInt32)
	}
	s := int32(len(b.id))
	b.id = append(b.id, id)
	b.val = append(b.val, val)
	b.down = append(b.down, -1)
	b.pending = append(b.pending, degree)
	b.live = append(b.live, s)
	b.index[id] = s
	b.stats.Declared++
	if live := len(b.index); live > b.stats.PeakLive {
		b.stats.PeakLive = live
	}
	return nil
}

// Evicted vertices stay linked into the chains (their downward arcs
// are frozen by the watermark invariant, and no future splice can land
// adjacent to them), so walks simply traverse them. Rewriting links
// past evicted vertices would destroy true augmented-tree arcs.

// addEdge merges the chains of two declared vertices, maintaining the
// invariant that descending down-link chains order all vertices known
// to share a superlevel component.
func (b *Builder) addEdge(hi, lo int64) error {
	u, ok := b.index[hi]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", hi)
	}
	v, ok := b.index[lo]
	if !ok {
		return fmt.Errorf("mergetree: edge references undeclared or evicted vertex %d", lo)
	}
	b.pending[u]--
	b.pending[v]--
	if b.pending[u] < 0 || b.pending[v] < 0 {
		return fmt.Errorf("mergetree: vertex finalized before its last edge (%d,%d)", hi, lo)
	}
	if u == v {
		return nil
	}
	if !b.above(u, v) {
		u, v = v, u
	}
	// Splice v into u's chain: walk down from u until v's slot.
	for {
		b.stats.SpliceOps++
		if u == v {
			return nil
		}
		d := b.down[u]
		if d < 0 {
			b.down[u] = v
			return nil
		}
		if d == v {
			return nil
		}
		if b.above(d, v) {
			u = d
			continue
		}
		// v belongs between u and d; splice and continue merging the
		// old tail below v.
		b.down[u] = v
		u = v
		v = d
	}
}

// evictable reports whether resident slot s can no longer change: all
// its edges are processed, and its downward arc ends at or above the
// watermark, so no future edge can splice between them.
func (b *Builder) evictable(s int32) bool {
	if b.pending[s] != 0 {
		return false
	}
	d := b.down[s]
	if d < 0 {
		return false // roots stay resident until finish
	}
	return !Above(b.wmVal, b.wmID, b.val[d], b.id[d])
}

// sweep evicts every currently evictable vertex.
func (b *Builder) sweep() {
	if !b.wmSet {
		return
	}
	resident := b.live[:0]
	for _, s := range b.live {
		if !b.evictable(s) {
			resident = append(resident, s)
			continue
		}
		delete(b.index, b.id[s])
		b.stats.Evicted++
	}
	b.live = resident
}

// finish assembles the final merge tree from every declared vertex,
// resident or evicted. The tree lives in the builder: it is valid
// until the next Glue, and a caller that keeps it clones it.
func (b *Builder) finish() (*Tree, StreamStats, error) {
	for _, s := range b.live {
		if b.pending[s] != 0 {
			return nil, b.stats, fmt.Errorf("mergetree: vertex %d still has %d unprocessed edges", b.id[s], b.pending[s])
		}
	}
	n := len(b.id)
	t := &b.tree
	t.IDs = slices.Grow(t.IDs[:0], n)[:n]
	t.Values = slices.Grow(t.Values[:0], n)[:n]
	t.Down = slices.Grow(t.Down[:0], n)[:n]
	b.rank = slices.Grow(b.rank[:0], n)[:n]
	// Node order is sweep order: sort the slots (in Down, for now).
	order := t.Down
	for s := range order {
		order[s] = int32(s)
	}
	slices.SortFunc(order, func(u, v int32) int {
		if vu, vv := b.val[u], b.val[v]; vu != vv {
			if vu > vv {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.id[u], b.id[v])
	})
	for r, s := range order {
		b.rank[s] = int32(r)
		t.IDs[r], t.Values[r] = b.id[s], b.val[s]
	}
	for s, d := range b.down {
		if d >= 0 {
			d = b.rank[d]
		}
		t.Down[b.rank[s]] = d
	}
	return t, b.stats, nil
}

// cursor is Glue's read position in one subtree.
type cursor struct {
	st   *Subtree
	pos  int     // next edge
	vpos int     // next undeclared vertex
	lpos int     // the vertex the next edge's lower endpoint is
	lo   float64 // that vertex's value
}

// seek moves lpos to the lower endpoint of edge pos. Edges are sorted
// by descending lower endpoint, as are the vertices, so lpos only moves
// forward; an edge whose endpoint it does not find breaks that order.
func (c *cursor) seek() error {
	lo := c.st.Edges[c.pos].Lo
	for c.lpos < len(c.st.Verts) && c.st.Verts[c.lpos].ID != lo {
		c.lpos++
	}
	if c.lpos == len(c.st.Verts) {
		return fmt.Errorf("mergetree: subtree of rank %d: edge %d's lower endpoint %d is not among its later vertices (edges out of sweep order?)", c.st.Rank, c.pos, lo)
	}
	c.lo = c.st.Verts[c.lpos].Value
	return nil
}

// Glue aggregates the reduced subtrees of all blocks into the global
// merge tree — the serial in-transit stage of the hybrid topology
// algorithm. It feeds edges in globally descending order of their
// lower endpoints (a k-way merge over the per-block sorted edge lists)
// and advances the watermark as it goes, so the builder can evict
// finalized vertices and keep its resident set small. The builder is
// reset first; the tree lives in it until the next Glue, and a caller
// that keeps it clones it.
func (b *Builder) Glue(subtrees []*Subtree) (*Tree, StreamStats, error) {
	b.reset()
	// Interleave per-block vertex declarations with a k-way merge of
	// the per-block edge lists by descending lower endpoint (Subtree
	// sorts both lists that way). Before an edge at sweep position L is
	// processed, every block declares its vertices down to L, so shared
	// vertices accumulate their full degree before their first edge and
	// the resident set tracks the sweep front instead of the whole tree.
	sweepEvery := b.sweepEvery
	if sweepEvery <= 0 {
		sweepEvery = 4096
	}
	b.cursors = slices.Grow(b.cursors[:0], len(subtrees))[:len(subtrees)]
	b.open = b.open[:0]
	for i, st := range subtrees {
		b.cursors[i] = cursor{st: st}
		if len(st.Edges) > 0 {
			if err := b.cursors[i].seek(); err != nil {
				return nil, b.stats, err
			}
			b.open = append(b.open, i)
		}
	}
	// declareDown declares all of c's vertices at or above sweep
	// position (val, id).
	declareDown := func(c *cursor, val float64, id int64) error {
		for c.vpos < len(c.st.Verts) {
			v := c.st.Verts[c.vpos]
			if Above(val, id, v.Value, v.ID) {
				break
			}
			if err := b.declareVertex(v.ID, v.Value, v.Degree); err != nil {
				return err
			}
			c.vpos++
		}
		return nil
	}
	processed := 0
	for len(b.open) > 0 {
		// Pick the cursor with the highest next lower endpoint.
		best := 0
		c := &b.cursors[b.open[0]]
		bv, bi := c.lo, c.st.Edges[c.pos].Lo
		for i := 1; i < len(b.open); i++ {
			c := &b.cursors[b.open[i]]
			if v, id := c.lo, c.st.Edges[c.pos].Lo; Above(v, id, bv, bi) {
				best, bv, bi = i, v, id
			}
		}
		// All blocks declare down to the new watermark first.
		for i := range b.cursors {
			if err := declareDown(&b.cursors[i], bv, bi); err != nil {
				return nil, b.stats, err
			}
		}
		c = &b.cursors[b.open[best]]
		e := c.st.Edges[c.pos]
		if err := b.addEdge(e.Hi, e.Lo); err != nil {
			return nil, b.stats, err
		}
		c.pos++
		if c.pos == len(c.st.Edges) {
			b.open = append(b.open[:best], b.open[best+1:]...)
		} else if err := c.seek(); err != nil {
			return nil, b.stats, err
		}
		processed++
		b.wmVal, b.wmID, b.wmSet = bv, bi, true
		if processed%sweepEvery == 0 {
			b.sweep()
		}
	}
	// Declare any remaining (isolated) vertices and finish.
	for i := range b.cursors {
		c := &b.cursors[i]
		for ; c.vpos < len(c.st.Verts); c.vpos++ {
			v := c.st.Verts[c.vpos]
			if err := b.declareVertex(v.ID, v.Value, v.Degree); err != nil {
				return nil, b.stats, err
			}
		}
		c.st = nil // do not pin the caller's subtrees
	}
	b.sweep()
	return b.finish()
}
