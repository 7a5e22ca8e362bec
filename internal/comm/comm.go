// Package comm provides an in-process SPMD message-passing runtime.
// It stands in for MPI on the primary compute resource: ranks are
// goroutines, point-to-point messages travel over matched channels, and
// collectives (barrier, reduce, allreduce, gather, broadcast) are built
// as deterministic binomial trees so that floating-point reductions are
// reproducible run to run.
//
// The in-situ stages of every analysis in the paper need only
// rank-local data plus collectives; this package supplies exactly that
// interface, so algorithm code is written as it would be against MPI.
package comm

import (
	"fmt"
	"sync"
)

// message is an in-flight point-to-point payload.
type message struct {
	from int
	tag  int
	data any
}

// World is a communicator spanning a fixed set of ranks.
type World struct {
	size int
	// mail[r] holds pending messages addressed to rank r.
	mail []*mailbox
}

// mailbox queues messages for one rank with (source, tag) matching.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// NewWorld creates a communicator with n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{size: n, mail: make([]*mailbox, n)}
	for i := range w.mail {
		w.mail[i] = newMailbox()
	}
	return w
}

// Rank is the per-goroutine handle for one SPMD process.
type Rank struct {
	w  *World
	id int
}

// Rank returns the handle for rank id; normally obtained inside Run.
func (w *World) Rank(id int) *Rank {
	if id < 0 || id >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", id, w.size))
	}
	return &Rank{w: w, id: id}
}

// Run executes fn concurrently on every rank of a fresh world and
// blocks until all ranks return. It is the moral equivalent of
// mpirun -np n.
func Run(n int, fn func(r *Rank)) *World {
	w := NewWorld(n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			fn(w.Rank(id))
		}(i)
	}
	wg.Wait()
	return w
}

// ID returns this rank's number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Send delivers data to rank `to` with the given tag. Sends are
// buffered and never block (the mailbox grows as needed), matching
// MPI's buffered-send semantics used by the in-situ stages.
func (r *Rank) Send(to, tag int, data any) {
	if to < 0 || to >= r.w.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	mb := r.w.mail[to]
	mb.mu.Lock()
	mb.pending = append(mb.pending, message{from: r.id, tag: tag, data: data})
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload. Pass AnySource / AnyTag to wildcard-match; the
// actual source is returned.
func (r *Rank) Recv(from, tag int) (data any, source int) {
	mb := r.w.mail[r.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.pending {
			if (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag) {
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				return m.data, m.from
			}
		}
		mb.cond.Wait()
	}
}

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Internal tags reserved for collectives; user tags should be >= 0
// and < tagCollBase.
const (
	tagCollBase = 1 << 20
	tagBarrier  = tagCollBase + iota
	tagReduce
	tagBcast
	tagGather
)

// Barrier blocks until every rank in the world has entered it. It is
// implemented as a reduce-to-root followed by a broadcast along a
// binomial tree, giving O(log n) depth.
func (r *Rank) Barrier() {
	r.reduceUpRooted(tagBarrier, 0, nil, func(a, b any) any { return nil })
	r.bcastDownRooted(tagBarrier, 0, nil)
}

// Allreduce combines per-rank values with op and returns the combined
// result on every rank.
func (r *Rank) Allreduce(value any, op func(a, b any) any) any {
	v := r.reduceUpRooted(tagReduce, 0, value, op)
	return r.bcastDownRooted(tagBcast, 0, v)
}

// Broadcast sends root's value to every rank and returns it.
func (r *Rank) Broadcast(root int, value any) any {
	return r.bcastDownRooted(tagBcast, root, value)
}

// rankVal carries a value labelled with its originating rank through
// the gather tree.
type rankVal struct {
	rank int
	val  any
}

// Gather collects each rank's value on root, ordered by rank. Non-root
// ranks return nil.
func (r *Rank) Gather(root int, value any) []any {
	combined := r.reduceUpRooted(tagGather, root, []rankVal{{r.id, value}}, func(a, b any) any {
		return append(append([]rankVal{}, a.([]rankVal)...), b.([]rankVal)...)
	})
	if r.id == root {
		pairs := combined.([]rankVal)
		out := make([]any, r.w.size)
		for _, p := range pairs {
			out[p.rank] = p.val
		}
		return out
	}
	return nil
}

// relRank maps the absolute rank to a position in a tree rooted at
// `root` (root becomes 0).
func relRank(id, root, size int) int  { return (id - root + size) % size }
func absRank(rel, root, size int) int { return (rel + root) % size }

// reduceUpRooted performs a binomial-tree reduction toward root and
// returns the combined value on root (partial values elsewhere).
func (r *Rank) reduceUpRooted(tag, root int, value any, op func(a, b any) any) any {
	size := r.w.size
	rel := relRank(r.id, root, size)
	// Collect from children rel + 2^k while they exist. Children are
	// received in increasing-offset order for determinism.
	for k := 1; k < size; k <<= 1 {
		if rel&k != 0 {
			// This node sends to its parent and is done.
			parent := absRank(rel&^k, root, size)
			r.Send(parent, tag, value)
			return value
		}
		childRel := rel | k
		if childRel < size {
			data, _ := r.Recv(absRank(childRel, root, size), tag)
			value = op(value, data)
		}
	}
	return value
}

// bcastDownRooted distributes root's value along the binomial tree and
// returns it on every rank.
func (r *Rank) bcastDownRooted(tag, root int, value any) any {
	size := r.w.size
	rel := relRank(r.id, root, size)
	// Find the highest power-of-two bit <= size to know the fan-out.
	top := 1
	for top < size {
		top <<= 1
	}
	if rel != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := absRank(rel&(rel-1), root, size)
		value, _ = r.Recv(parent, tag)
	}
	// Forward to children: set bits above the lowest set bit of rel.
	low := top
	if rel != 0 {
		low = rel & (-rel)
	}
	for k := low >> 1; k >= 1; k >>= 1 {
		childRel := rel | k
		if childRel != rel && childRel < size {
			r.Send(absRank(childRel, root, size), tag, value)
		}
	}
	return value
}
