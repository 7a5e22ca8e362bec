// Package staging implements the staging area of the hybrid framework:
// a set of dedicated cores ("staging buckets") that issue bucket-ready
// requests to the DataSpaces task queue, asynchronously pull the
// in-situ intermediate data over DART, and execute the in-transit
// stage of each analysis.
//
// Because every bucket independently pulls the next pending task,
// successive timesteps of the same analysis are automatically mapped
// onto different buckets — the paper's temporal multiplexing — so the
// time to complete an analysis is decoupled from the time to advance
// the simulation.
package staging

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/obs"
)

// ErrDeadLetter marks a task that exhausted its attempt budget: it was
// handed to buckets MaxAttempts times and every attempt failed (bucket
// crash or unpullable inputs). The dead-letter Result carries it so
// the pipeline can mark the step explicitly degraded instead of
// silently losing it.
var ErrDeadLetter = errors.New("staging: task dead-lettered")

// DeadLetterError is the typed dead-letter report: it names the task,
// its analysis and step and how many attempts it took. It unwraps to
// both ErrDeadLetter and the last underlying cause.
type DeadLetterError struct {
	Analysis string
	Step     int
	TaskID   int64
	Attempts int
	// Last is the failure that exhausted the attempt budget.
	Last error
}

// Error keeps the legacy single-tenant message shape.
func (e *DeadLetterError) Error() string {
	return fmt.Sprintf("staging: task %d (%s step %d) failed %d attempts: %v (last: %v)",
		e.TaskID, e.Analysis, e.Step, e.Attempts, ErrDeadLetter, e.Last)
}

// Unwrap exposes both the dead-letter marker and the last cause to
// errors.Is/As.
func (e *DeadLetterError) Unwrap() []error { return []error{ErrDeadLetter, e.Last} }

// Handler executes the in-transit stage of one analysis once every
// input has been pulled. It receives the task and the pulled input
// payloads, ordered as in Task.Inputs, and returns an arbitrary result
// object.
//
// The bucket owns every pulled payload and returns it to the shared
// buffer pool once the handler has returned, so a handler must not
// retain an input slice (or a sub-slice of it) past its return: it
// copies anything it keeps, and its result must not alias an input.
// Nor may it keep data itself, which the bucket reuses for its next
// task.
type Handler func(task dataspaces.Task, data [][]byte) (any, error)

// Result records the outcome and cost breakdown of one in-transit task.
type Result struct {
	Task   dataspaces.Task
	Output any
	Err    error

	// BytesMoved is the total intermediate data pulled for this task.
	BytesMoved int64
	// MoveModeledSum is the modeled movement time summed over inputs —
	// the paper's per-step "data movement time": a bucket's ingress link
	// admits one RDMA stream's worth of bandwidth at a time.
	MoveModeledSum time.Duration
	// MoveWall is the measured wall-clock time of the pull phase.
	MoveWall time.Duration
	// ComputeWall is the measured wall-clock time of the handler, which
	// starts once the pull phase has ended.
	ComputeWall time.Duration
	// Start and End bound the task's execution for pipelining analysis.
	Start, End time.Time
	// Attempts is how many times the task was handed to a bucket,
	// including the attempt that produced this result.
	Attempts int
	// DeadLetter reports that the task exhausted its attempt budget;
	// Err then wraps ErrDeadLetter and the last underlying failure.
	DeadLetter bool
}

// routeKey scopes a handler registration to one (tenant, analysis)
// route; single-tenant registrations use an empty tenant.
type routeKey struct {
	tenant   string
	analysis string
}

// Area is a running staging area.
type Area struct {
	svc *dart.Fabric
	ds  *dataspaces.Service

	mu      sync.Mutex
	points  []*dart.Endpoint // grows under AddBucket
	started bool
	stages  map[routeKey]Handler
	release func(dataspaces.Descriptor)

	results chan *Result
	free    bufpool.List[*Result] // drained results, handed back by Recycle
	wg      sync.WaitGroup

	// maxAttempts bounds how many times a task may be handed to a
	// bucket before it is dead-lettered (3). Attempts are consumed by
	// bucket crashes and by failed pulls; handler errors and panics do
	// not requeue, because re-running a deterministic analysis on the
	// same inputs would fail the same way.
	maxAttempts int

	// kill holds one channel per bucket, replaced on every respawn:
	// closing the current generation's channel crashes that bucket at
	// its next checkpoint. retire holds one per bucket too, but is
	// never replaced: closing it drains the bucket out of the pool
	// gracefully at its next checkpoint-free boundary.
	killMu  sync.Mutex
	kill    []chan struct{}
	retire  []chan struct{}
	retired []bool

	active  atomic.Int64 // buckets currently in (or returning to) the pool
	crashes atomic.Int64

	probe dart.MemHandle

	plane atomic.Pointer[obs.Plane]
}

// SetPlane attaches the observability plane: every task attempt records
// a span on its bucket's lane (with pull and run child spans), every
// final result records a terminal task.done event, crashes record
// bucket.crash events, and the crash counter is published as a metric
// series. A nil plane is ignored.
func (a *Area) SetPlane(pl *obs.Plane) {
	if pl == nil {
		return
	}
	pl.Registry().CounterFunc("staging_crashes_total", "bucket crashes, each followed by a respawn",
		func() float64 { return float64(a.crashes.Load()) })
	a.plane.Store(pl)
}

// Lane names a staging bucket: its DART endpoint, and the lane its
// task spans (and so its Gantt row) are drawn on.
func Lane(id int) string { return "bucket-" + strconv.Itoa(id) }

// attempt is one task's run on a bucket: when the bucket took it, and
// its open task.attempt span (a nil act: no plane attached, and no
// span is recorded). now, phase and end are the bucket's stage seam:
// the only clock reads of an attempt and the only writers of its
// records.
type attempt struct {
	start time.Time
	act   *obs.Active
	rec   *obs.Recorder
	lane  string
}

// beginAttempt starts the attempt and, with a plane attached, opens its
// task.attempt span on the bucket's lane.
func (a *Area) beginAttempt(id int, task dataspaces.Task) attempt {
	var at attempt
	at.start = at.now()
	if pl := a.plane.Load(); pl != nil {
		at.rec, at.lane = pl.Recorder(), Lane(id)
		at.act = at.rec.Begin(0, obs.CatTask, at.lane, "task.attempt",
			obs.Int64("task", task.ID),
			obs.Str("analysis", task.Analysis),
			obs.Int("step", task.Step),
			obs.Int("attempt", task.Attempts+1))
	}
	return at
}

// now reads the clock where a phase of the attempt starts or ends.
func (at *attempt) now() time.Time { return time.Now() }

// phase is one timed part of an attempt.
type phase uint8

const (
	phasePull phase = iota // the inputs' pull: Result.MoveWall, the task.pull span (bytes, error)
	phaseRun               // the handler: Result.ComputeWall and End, the task.run span (error)
)

// phase closes phase ph of the attempt, begun at start: it reads the
// clock once, fills res's fields of that phase and, with a plane
// attached, records the phase's child span carrying err.
func (at *attempt) phase(ph phase, start time.Time, res *Result, err error) {
	end := at.now()
	if ph == phasePull {
		res.MoveWall = end.Sub(start)
		if at.act != nil {
			at.rec.Record(at.act.ID(), obs.CatTask, at.lane, "task.pull", start, end,
				obs.Int64("bytes", res.BytesMoved), obs.Error(err))
		}
		return
	}
	res.ComputeWall, res.End = end.Sub(start), end
	if at.act != nil {
		at.rec.Record(at.act.ID(), obs.CatTask, at.lane, "task.run", start, end, obs.Error(err))
	}
}

// end closes the attempt span with its outcome: "ok", "error",
// "requeue", or "dead-letter", plus whether the bucket crashed while
// holding the task. A final result also records the terminal task.done
// event — with dataspaces' task.submit events this forms the lifecycle
// ledger: every submitted task id pairs with exactly one task.done —
// and a crash records a bucket.crash event on the bucket's lane.
func (at *attempt) end(res *Result, crashed bool) {
	if at.act == nil {
		return
	}
	outcome := "ok"
	var err error
	switch {
	case res == nil:
		outcome = "requeue"
	case res.DeadLetter:
		outcome, err = "dead-letter", res.Err
	case res.Err != nil:
		outcome, err = "error", res.Err
	}
	at.act.End(obs.Str("outcome", outcome), obs.Bool("crashed", crashed), obs.Error(err))
	now := at.now()
	if res != nil {
		at.rec.Event(0, obs.CatTask, at.lane, "task.done", now,
			obs.Int64("task", res.Task.ID),
			obs.Str("analysis", res.Task.Analysis),
			obs.Int("step", res.Task.Step),
			obs.Str("outcome", outcome),
			obs.Int("attempts", res.Attempts))
	}
	if crashed {
		at.rec.Event(0, obs.CatTask, at.lane, "bucket.crash", now)
	}
}

// New creates a staging area with nbuckets bucket cores attached to
// the fabric, pulling work from ds. release, if not nil, is called with
// each input descriptor after its data has been pulled, letting the
// producer release the pinned region. Start must be called to launch
// the bucket loops.
func New(fabric *dart.Fabric, ds *dataspaces.Service, nbuckets int, release func(dataspaces.Descriptor)) (*Area, error) {
	if nbuckets < 1 {
		return nil, fmt.Errorf("staging: need at least one bucket, got %d", nbuckets)
	}
	a := &Area{
		svc:         fabric,
		ds:          ds,
		stages:      make(map[routeKey]Handler),
		release:     release,
		maxAttempts: 3,
		kill:        make([]chan struct{}, nbuckets),
		retire:      make([]chan struct{}, nbuckets),
		retired:     make([]bool, nbuckets),
	}
	// Deep enough that buckets rarely stall on a slow drain.
	a.results = make(chan *Result, 1024)
	for i := 0; i < nbuckets; i++ {
		a.points = append(a.points, fabric.Register(Lane(i)))
		a.kill[i] = make(chan struct{})
		a.retire[i] = make(chan struct{})
	}
	a.active.Store(int64(nbuckets))
	// A tiny always-registered region on bucket 0: pipelines probe the
	// transit path's health with a cheap Get against it before deciding
	// whether to submit hybrid work or degrade to in-situ.
	a.probe = a.points[0].RegisterMem(make([]byte, 16))
	return a, nil
}

// ProbeHandle returns the handle of a small persistent region on
// bucket 0's endpoint, used by pipelines as a transit-health probe.
func (a *Area) ProbeHandle() dart.MemHandle { return a.probe }

// HandleT registers the in-transit stage for one (tenant, analysis)
// route, so two tenants running the same analysis name dispatch to
// their own handlers. A route has one handler: a later registration
// replaces an earlier one. Handlers must be registered before Start.
func (a *Area) HandleT(tenant, analysis string, h Handler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stages[routeKey{tenant, analysis}] = h
}

// ActiveBuckets returns the current bucket-pool size: started buckets
// plus added ones, minus retired ones. A crashed bucket still counts —
// its respawn is part of the pool.
func (a *Area) ActiveBuckets() int { return int(a.active.Load()) }

// Results returns the stream of completed in-transit tasks. Each
// Result, and its task's Inputs slice, belongs to the receiver until it
// hands them back with Recycle.
func (a *Area) Results() <-chan *Result { return a.results }

// Recycle hands back a Result received from Results once the caller is
// done with it: the Result to the area's free list and its task's
// Inputs to the service's. Neither may be touched afterwards.
func (a *Area) Recycle(res *Result) {
	a.ds.RecycleInputs(res.Task.Inputs)
	*res = Result{}
	a.free.Put(res)
}

// Start launches one goroutine per bucket. Each loops: bucket-ready →
// assigned task → pull inputs asynchronously → run handler → emit
// result, until the DataSpaces service closes.
func (a *Area) Start() {
	a.mu.Lock()
	n := len(a.points)
	a.started = true
	a.mu.Unlock()
	for i := 0; i < n; i++ {
		a.wg.Add(1)
		go a.bucketLoop(i)
	}
}

// AddBucket grows the pool by one bucket, registering its endpoint and
// (if the area has started) launching its loop immediately. It returns
// the new bucket's id.
func (a *Area) AddBucket() int {
	a.mu.Lock()
	id := len(a.points)
	a.points = append(a.points, a.svc.Register(Lane(id)))
	started := a.started
	a.mu.Unlock()
	a.killMu.Lock()
	a.kill = append(a.kill, make(chan struct{}))
	a.retire = append(a.retire, make(chan struct{}))
	a.retired = append(a.retired, false)
	a.killMu.Unlock()
	a.active.Add(1)
	if started {
		a.wg.Add(1)
		go a.bucketLoop(id)
	}
	return id
}

// RetireBucket shrinks the pool by one bucket, choosing the
// highest-numbered live bucket and draining it gracefully: a retiring
// bucket finishes the task it holds and emits its one result, then
// exits instead of asking for more work — no task is lost or finished
// twice. Bucket 0 is never retired (it hosts the transit-health probe
// region). It returns false when no bucket is eligible.
func (a *Area) RetireBucket() bool {
	a.killMu.Lock()
	defer a.killMu.Unlock()
	for id := len(a.retire) - 1; id > 0; id-- {
		if !a.retired[id] {
			a.retired[id] = true
			close(a.retire[id])
			return true
		}
	}
	return false
}

// Wait blocks until all bucket loops have exited (after the DataSpaces
// service is closed and remaining tasks drained), then closes the
// results channel.
func (a *Area) Wait() {
	a.wg.Wait()
	close(a.results)
}

// CrashBucket kills the identified bucket at its next checkpoint: the
// task it is working on (or picks up next) is requeued — or
// dead-lettered if out of attempts — and a fresh bucket goroutine is
// respawned in its place, modeling a staging-node failure plus
// recovery. It returns false for an out-of-range id. Crashing an
// already-crashed bucket before its respawn is a no-op.
func (a *Area) CrashBucket(id int) bool {
	a.killMu.Lock()
	defer a.killMu.Unlock()
	if id < 0 || id >= len(a.kill) {
		return false
	}
	select {
	case <-a.kill[id]:
		// Already killed; the respawn will install a fresh channel.
	default:
		close(a.kill[id])
	}
	return true
}

// respawn installs a fresh kill channel and launches a replacement
// bucket goroutine after a crash — unless the bucket was retired while
// (or before) crashing, in which case it simply leaves the pool.
func (a *Area) respawn(id int) {
	a.killMu.Lock()
	if a.retired[id] {
		a.killMu.Unlock()
		a.active.Add(-1)
		return
	}
	a.kill[id] = make(chan struct{})
	a.killMu.Unlock()
	a.wg.Add(1)
	go a.bucketLoop(id)
}

// killed reports whether the generation's kill channel has been closed.
func killed(kill <-chan struct{}) bool {
	select {
	case <-kill:
		return true
	default:
		return false
	}
}

// ResilienceStats snapshots the staging area's failure counters. A
// dead letter is a Result (DeadLetter set), counted by whoever drains
// the results.
type ResilienceStats struct {
	Crashes  int64 // bucket crashes (each followed by a respawn)
	Requeues int64 // failed task attempts pushed back to the queue
}

// Resilience returns the failure counters.
func (a *Area) Resilience() ResilienceStats {
	return ResilienceStats{
		Crashes:  a.crashes.Load(),
		Requeues: a.ds.Requeues(),
	}
}

func (a *Area) bucketLoop(id int) {
	defer a.wg.Done()
	a.mu.Lock()
	pl := &puller{ep: a.points[id]}
	a.mu.Unlock()
	defer pl.stop()
	// This generation's kill channel, and the never-replaced retire one.
	a.killMu.Lock()
	kill, retire := a.kill[id], a.retire[id]
	a.killMu.Unlock()
	for {
		select {
		case <-retire:
			a.active.Add(-1)
			return
		default:
		}
		task, err := a.ds.BucketReadyCancel(retire)
		if err != nil {
			if errors.Is(err, dataspaces.ErrCancelled) {
				a.active.Add(-1)
			}
			return
		}
		res, crashed := a.runTask(id, pl, kill, task)
		if res != nil {
			// The task's one final result (requeues return nil).
			a.results <- res
		}
		if crashed {
			a.crashes.Add(1)
			a.respawn(id)
			return
		}
	}
}

// failTask disposes of a failed attempt: while the task has attempts
// left it is requeued (pinned inputs stay registered for the retry and
// no Result is emitted yet); otherwise it is dead-lettered — inputs
// are released so producer regions do not leak, and an errored Result
// wrapping ErrDeadLetter is returned.
func (a *Area) failTask(at *attempt, task dataspaces.Task, cause error) *Result {
	if task.Attempts+1 < a.maxAttempts {
		if a.ds.Requeue(task) == nil {
			return nil
		}
		// Service closed mid-failure: fall through to dead-letter.
	}
	a.releaseInputs(task)
	return &Result{
		Task:       task,
		Start:      at.start,
		End:        at.now(),
		Attempts:   task.Attempts + 1,
		DeadLetter: true,
		Err: &DeadLetterError{
			Analysis: task.Analysis,
			Step:     task.Step,
			TaskID:   task.ID,
			Attempts: task.Attempts + 1,
			Last:     cause,
		},
	}
}
