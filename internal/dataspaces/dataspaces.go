// Package dataspaces implements the scheduling and coordination layer
// of the hybrid framework, modeled on DataSpaces (Docan et al.,
// HPDC'10): a semantically specialized shared-space abstraction in
// which in-situ producers insert descriptors for RDMA-enabled data
// blocks, a consumer takes them by name and version (timestep) as the
// inputs of one task, and an in-transit task queue matches
// data-ready events against bucket-ready requests in first-come
// first-served order.
//
// The descriptor index is sharded over a configurable number of
// servers by hashing, as in the paper ("the hashing used to balance
// the RPC messages ... over multiple DataSpaces servers");
// TestServerSharding checks the balance through the per-server index
// sizes.
package dataspaces

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/dart"
	"insitu/internal/obs"
)

// Descriptor names one RDMA-enabled data block produced by an in-situ
// stage: which analysis produced it, for which timestep, on which rank,
// and the DART handle a bucket can pull it with.
type Descriptor struct {
	Name    string         // variable or intermediate-product name
	Version int            // simulation timestep
	Rank    int            // producing simulation rank
	Handle  dart.MemHandle // where the bytes live
	// Tenant scopes the descriptor to one pipeline in a multi-tenant
	// fabric; empty for single-tenant runs (whose index keys and shard
	// hashes are unchanged).
	Tenant string
}

// key is the index key descriptors are sharded and grouped by.
type key struct {
	tenant  string
	name    string
	version int
}

// server is one shard of the descriptor index.
type server struct {
	mu    sync.Mutex
	index map[key][]Descriptor
}

// Task describes one unit of in-transit work: run the named analysis
// for one timestep over the given input blocks. Tasks are created by
// data-ready events and drained by bucket-ready requests. It is the
// submitted TaskSpec plus what the service adds: the id, and the
// attempt count that survives requeues.
type Task struct {
	ID int64
	TaskSpec
	// Attempts counts how many times the task has been handed to a
	// bucket and failed (bucket crash or transfer failure); it starts
	// at 0 and is incremented by Requeue.
	Attempts int
}

// TaskSpec describes a task submission.
type TaskSpec struct {
	Analysis string
	Step     int
	Inputs   []Descriptor
	// Deadline, when non-zero, bounds the task's data movement: pulls
	// past it fail and the task is eventually dead-lettered. It is set
	// from the submitting step's deadline budget.
	Deadline time.Time
	// Shaped marks a task produced at the admission ladder's shaped
	// rung (a coarser payload). The transit tier carries it through so
	// results can be marked as reduced-fidelity.
	Shaped bool
	// Account names the credit account the producer drew this task's
	// flow-control credit from (empty: the task holds none). The
	// service only carries it, across requeues too: the producer settles
	// the credit when the task's final result comes back.
	Account string
	// Tenant names the submitting pipeline in a multi-tenant fabric;
	// empty for single-tenant runs. It selects the per-tenant queue the
	// task is scheduled from.
	Tenant string
	// Probe marks a quarantine half-open probe: the one task a
	// quarantined (tenant, analysis) route is allowed to submit so its
	// disposition can decide between release and re-open. The service
	// only carries it back to the producer with the result.
	Probe bool
}

// Service is the coordination service: a sharded descriptor index plus
// the in-transit task queue.
type Service struct {
	servers []*server
	fabric  *dart.Fabric
	inputs  bufpool.List[[]Descriptor] // index slices handed back by RecycleInputs
	waiters bufpool.List[*waiter]      // waiters no bucket is blocked on

	mu      sync.Mutex
	nextID  int64
	waiting []*waiter // free buckets, FIFO
	closed  bool
	bound   int // max queued (unassigned) tasks per tenant; 0 = unbounded

	// The task queue: round robin over per-tenant FIFO queues. A
	// single-tenant run is a one-tenant ring, which is plain FCFS.
	tq    map[string]*fifo // per-tenant FIFO queues
	order []string         // sorted tenant names, the ring
	rr    int              // ring position: the tenant served next
	head  fifo             // requeued tasks, served before any tenant queue

	assigned int64 // tasks handed to buckets
	requeues int64 // failed tasks pushed back for another attempt

	plane atomic.Pointer[obs.Plane]
}

// waiter is one blocked bucket-ready request. The channel is buffered
// so an assigning submitter never blocks on a receiver that is
// concurrently cancelling.
type waiter struct {
	ch chan Task
}

// fifo is a task queue that reuses its array: a pop advances the head,
// and a push into a full array first slides the queued tasks down over
// the popped ones.
type fifo struct {
	q []Task
	h int
}

func (f *fifo) len() int {
	if f == nil {
		return 0
	}
	return len(f.q) - f.h
}

func (f *fifo) push(t Task) {
	if len(f.q) == cap(f.q) && f.h > 0 {
		n := copy(f.q, f.q[f.h:])
		clear(f.q[n:])
		f.q, f.h = f.q[:n], 0
	}
	f.q = append(f.q, t)
}

func (f *fifo) pop() (t Task, ok bool) {
	if ok = f.len() > 0; ok {
		t, f.q[f.h] = f.q[f.h], Task{}
		f.h++
	}
	return t, ok
}

// New creates a service with the given number of index servers
// attached to fabric. The paper's runs used 160 and 256
// DataSpaces-service cores; here each server is a shard.
func New(fabric *dart.Fabric, servers int) (*Service, error) {
	if servers < 1 {
		return nil, fmt.Errorf("dataspaces: need at least one server, got %d", servers)
	}
	s := &Service{
		fabric: fabric, servers: make([]*server, servers),
		tq: make(map[string]*fifo),
	}
	for i := range s.servers {
		s.servers[i] = &server{index: make(map[key][]Descriptor)}
	}
	return s, nil
}

// SetPlane attaches the observability plane: task submissions and
// requeues record lifecycle events on the "queue" lane, and the
// service's live state — queue depth, free buckets, assignment and
// requeue totals — is published as metric series sampled at scrape
// time. A nil plane is ignored.
func (s *Service) SetPlane(pl *obs.Plane) {
	if pl == nil {
		return
	}
	reg := pl.Registry()
	reg.GaugeFunc("dataspaces_queue_depth", "tasks waiting for a bucket",
		func() float64 { return float64(s.QueueDepth()) })
	reg.GaugeFunc("dataspaces_free_buckets", "buckets waiting for a task",
		func() float64 { return float64(s.FreeBuckets()) })
	reg.CounterFunc("dataspaces_assigned_total", "tasks handed to buckets",
		func() float64 { return float64(s.Assigned()) })
	reg.CounterFunc("dataspaces_requeues_total", "failed tasks pushed back for another attempt",
		func() float64 { return float64(s.Requeues()) })
	s.plane.Store(pl)
}

// observeSubmit records a task.submit lifecycle event; the JSONL
// reconciliation invariant pairs it with exactly one task.done from the
// staging tier.
func (s *Service) observeSubmit(t Task) {
	pl := s.plane.Load()
	if pl == nil {
		return
	}
	attrs := []obs.Attr{
		obs.Int64("task", t.ID),
		obs.Str("analysis", t.Analysis),
		obs.Int("step", t.Step),
		obs.Bool("shaped", t.Shaped),
		obs.Bool("credited", t.Account != ""),
	}
	if t.Tenant != "" {
		attrs = append(attrs, obs.Str("tenant", t.Tenant))
	}
	pl.Recorder().Event(0, obs.CatTask, "queue", "task.submit", time.Now(), attrs...)
}

// observeRequeue records a task.requeue lifecycle event.
func (s *Service) observeRequeue(t Task) {
	pl := s.plane.Load()
	if pl == nil {
		return
	}
	pl.Recorder().Event(0, obs.CatTask, "queue", "task.requeue", time.Now(),
		obs.Int64("task", t.ID),
		obs.Int("attempt", t.Attempts))
}

// ErrClosed is returned by blocking operations after Close.
var ErrClosed = errors.New("dataspaces: service closed")

// ErrCancelled is returned by BucketReadyCancel when the caller's
// cancel channel fires before a task is assigned — the graceful path a
// retiring bucket takes out of its blocking wait.
var ErrCancelled = errors.New("dataspaces: bucket wait cancelled")

// ErrQueueFull is returned by SubmitSpec when the bounded task queue is
// at capacity and no bucket is waiting — the backpressure signal the
// admission ladder reacts to instead of letting the queue grow.
var ErrQueueFull = errors.New("dataspaces: task queue full")

// SetQueueBound bounds the number of *queued* (submitted but not yet
// assigned) tasks of each tenant; submissions beyond it fail with
// ErrQueueFull. Zero removes the bound. Tasks handed directly to a
// waiting bucket never count against it, and Requeue is exempt: a
// requeued task already held queue occupancy once and must not be lost
// to backpressure.
func (s *Service) SetQueueBound(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound = n
}

// SetTenants enters the named tenants in the dequeue ring. Tasks are
// dequeued round robin over per-tenant queues, one task per tenant per
// ring turn, so a tenant flooding the queue cannot starve the others.
// Head-requeues stay exempt — a requeued task already held queue
// occupancy once and is served before any tenant queue, preserving the
// at-most-once in-flight guarantee of the crash path. A queue bound
// applies per tenant (each tenant owns its bulkhead's depth). Call
// before traffic starts.
func (s *Service) SetTenants(names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		s.ensureTenantLocked(name)
	}
	// The ring starts at its first tenant whatever order names came in.
	s.rr = 0
}

// ensureTenantLocked adds a tenant to the ring, keeping the ring
// sorted so scheduling order is deterministic regardless of submission
// interleaving.
func (s *Service) ensureTenantLocked(name string) {
	i := sort.SearchStrings(s.order, name)
	if i < len(s.order) && s.order[i] == name {
		return
	}
	s.order = append(s.order, "")
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = name
	if _, ok := s.tq[name]; !ok {
		s.tq[name] = new(fifo)
	}
	// Keep the ring position pointing at the same tenant across the
	// insertion.
	if i <= s.rr && len(s.order) > 1 {
		s.rr++
	}
}

// nextTaskLocked pops the next task to assign: head-requeues first,
// then the head of the first non-empty tenant queue from the ring
// position on, after which the ring moves past that tenant.
func (s *Service) nextTaskLocked() (Task, bool) {
	if t, ok := s.head.pop(); ok {
		return t, true
	}
	for range s.order {
		name := s.order[s.rr]
		s.rr = (s.rr + 1) % len(s.order)
		if t, ok := s.tq[name].pop(); ok {
			return t, true
		}
	}
	return Task{}, false
}

// shard returns the server responsible for a key. Tenant-less keys
// hash exactly as before multi-tenancy, so single-tenant shard
// placement (and the shard balance tests riding on it) is unchanged.
func (s *Service) shard(k key) *server {
	var buf [64]byte
	b := buf[:0]
	if k.tenant != "" {
		b = append(append(b, k.tenant...), '/')
	}
	b = strconv.AppendInt(append(append(b, k.name...), '/'), int64(k.version), 10)
	h := fnv.New32a()
	h.Write(b)
	return s.servers[int(h.Sum32())%len(s.servers)]
}

// rpcCost accounts one control RPC on the simulated network. The
// descriptor payload is small, so it always rides the SMSG path.
func (s *Service) rpcCost(d Descriptor) {
	if s.fabric == nil {
		return
	}
	// tenant + name + version + box (6 ints) + handle (3 ints) + rank.
	size := len(d.Tenant) + len(d.Name) + 8 + 6*8 + 3*8 + 8
	s.fabric.Network().Charge(size)
}

// Put inserts a descriptor into the shared space. Producers call this
// after registering their intermediate data with DART. A descriptor
// with the same (Name, Version, Rank) as an existing one replaces it —
// re-registration during journal replay is idempotent instead of
// doubling a task's inputs. A key's first descriptor starts a slice
// drawn from the ones RecycleInputs handed back.
func (s *Service) Put(d Descriptor) {
	k := key{d.Tenant, d.Name, d.Version}
	sv := s.shard(k)
	s.rpcCost(d)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	ds := sv.index[k]
	for i := range ds {
		if ds[i].Rank == d.Rank {
			ds[i] = d
			return
		}
	}
	if ds == nil {
		ds = s.inputs.Get()
	}
	sv.index[k] = append(ds, d)
}

// TakeT removes every descriptor registered under (tenant, name,
// version) and returns them, in registration order, as one task's
// Inputs. The slice is the index's own, not a copy: the caller owns it
// until it hands it to RecycleInputs.
func (s *Service) TakeT(tenant, name string, version int) []Descriptor {
	k := key{tenant, name, version}
	sv := s.shard(k)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	ds := sv.index[k]
	delete(sv.index, k)
	return ds
}

// RecycleInputs hands back a slice TakeT returned once the task it
// became the Inputs of is done with it: its final result handled, or
// its submission refused. Put draws the next key's slice from it; the
// caller must not touch it again.
func (s *Service) RecycleInputs(ds []Descriptor) {
	clear(ds)
	s.inputs.Put(ds[:0])
}

// SubmitSpec records a data-ready event: the in-transit task and its
// data descriptors are pushed into the task queue. If a bucket is
// already waiting, the task is handed over immediately (FCFS on both
// sides); otherwise it joins the queue, failing with ErrQueueFull when
// a queue bound is set and reached. The assigned task id is returned.
func (s *Service) SubmitSpec(spec TaskSpec) (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if len(s.waiting) == 0 && s.bound > 0 && s.tq[spec.Tenant].len() >= s.bound {
		s.mu.Unlock()
		return 0, ErrQueueFull
	}
	s.nextID++
	t := Task{ID: s.nextID, TaskSpec: spec}
	if len(s.waiting) > 0 {
		w := s.waiting[0]
		s.waiting = append(s.waiting[:0], s.waiting[1:]...)
		s.assigned++
		s.mu.Unlock()
		s.observeSubmit(t)
		w.ch <- t
		return t.ID, nil
	}
	s.ensureTenantLocked(t.Tenant)
	s.tq[t.Tenant].push(t)
	s.mu.Unlock()
	s.observeSubmit(t)
	return t.ID, nil
}

// Requeue puts a failed task back at the head of the queue — it was
// the oldest outstanding work, so FCFS order is preserved and the next
// free bucket picks it up — incrementing its attempt count. If a
// bucket is already waiting the task is handed over immediately.
// Requeueing on a closed service fails with ErrClosed, in which case
// the caller must dead-letter the task itself.
func (s *Service) Requeue(t Task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t.Attempts++
	s.requeues++
	if len(s.waiting) > 0 {
		w := s.waiting[0]
		s.waiting = append(s.waiting[:0], s.waiting[1:]...)
		s.assigned++
		s.mu.Unlock()
		s.observeRequeue(t)
		w.ch <- t
		return nil
	}
	// A dedicated head lane, so a requeue neither jumps another tenant's
	// round-robin turn nor waits behind it.
	s.head.push(t)
	s.mu.Unlock()
	s.observeRequeue(t)
	return nil
}

// Requeues returns the total number of task requeues.
func (s *Service) Requeues() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requeues
}

// BucketReadyCancel records a bucket-ready event and blocks until a
// task is assigned or the service closes. Buckets are served strictly
// in the order their requests arrived. When `cancel` fires before a
// task is assigned the wait unwinds with ErrCancelled, the path a
// retiring bucket takes out of the pool. If an assignment races the
// cancel, the task wins — it was already committed to this bucket and
// must not be lost. A nil cancel channel never cancels.
func (s *Service) BucketReadyCancel(cancel <-chan struct{}) (Task, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Task{}, ErrClosed
	}
	if t, ok := s.nextTaskLocked(); ok {
		s.assigned++
		s.mu.Unlock()
		return t, nil
	}
	w := s.waiters.Get()
	if w == nil {
		w = &waiter{ch: make(chan Task, 1)}
	}
	s.waiting = append(s.waiting, w)
	s.mu.Unlock()
	var t Task
	var ok bool
	select { // a nil cancel never fires
	case t, ok = <-w.ch:
	case <-cancel:
		s.mu.Lock()
		for i, o := range s.waiting {
			if o == w {
				s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
				s.mu.Unlock()
				s.waiters.Put(w)
				return Task{}, ErrCancelled
			}
		}
		s.mu.Unlock()
		// Not on the list: an assignment or Close raced the cancel and
		// already owns this waiter — honour whichever arrives.
		t, ok = <-w.ch
	}
	if !ok {
		return Task{}, ErrClosed // Close closed w's channel for good
	}
	s.waiters.Put(w)
	return t, nil
}

// QueueDepth returns the number of tasks waiting for a bucket, all
// tenants and the requeue head lane together.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.head.len()
	for _, q := range s.tq {
		n += q.len()
	}
	return n
}

// QueueDepthT returns one tenant's queued (unassigned, non-requeue)
// task count — the per-bulkhead pressure signal each tenant's
// admission ladder consumes so one tenant's backlog does not degrade
// the others.
func (s *Service) QueueDepthT(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tq[tenant].len()
}

// FreeBuckets returns the number of buckets currently waiting for work.
func (s *Service) FreeBuckets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiting)
}

// Assigned returns the total number of tasks handed to buckets.
func (s *Service) Assigned() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assigned
}

// Close shuts the task queue down: waiting buckets receive ErrClosed
// and future submissions fail. Descriptor queries remain usable.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.waiting {
		close(w.ch)
	}
	s.waiting = nil
}
