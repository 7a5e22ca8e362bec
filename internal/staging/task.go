package staging

import (
	"fmt"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
)

// runTask executes one attempt at an assigned task: it pulls every
// input, releases the producer regions and runs the route's handler
// over the pulled set. It returns the Result to emit (nil when the task
// was requeued instead) and whether the bucket crashed while holding
// the task.
func (a *Area) runTask(id int, pl *puller, kill <-chan struct{}, task dataspaces.Task) (out *Result, crashed bool) {
	at := a.beginAttempt(id, task)
	defer func() { at.end(out, crashed) }()
	// Checkpoint: crash at assignment. The task never started; it is
	// requeued and the replacement bucket (or a peer) picks it up.
	if killed(kill) {
		return a.failTask(&at, task, fmt.Errorf("bucket %d crashed at assignment", id)), true
	}
	a.mu.Lock()
	h := a.stages[routeKey{task.Tenant, task.Analysis}]
	a.mu.Unlock()
	res := Result{Task: task, Start: at.start, Attempts: task.Attempts + 1}

	pullStart := at.now()
	data, err := pl.pull(task, &res)
	at.phase(phasePull, pullStart, &res, err)
	// The bucket owns every pulled buffer: they go back to the pool once
	// the handler has returned, or as soon as the attempt fails.
	defer func() {
		for _, p := range data {
			bufpool.Put(p) // a failed pull left nil, which Put ignores
		}
		clear(data) // so the next task's failed pulls leave nil too
	}()

	// Checkpoint: crash after the pull but before releasing the
	// producer regions — the retry can therefore pull them again. A
	// failed pull keeps the regions pinned for the retry the same way.
	if err == nil && killed(kill) {
		err, crashed = fmt.Errorf("bucket %d crashed after pull", id), true
	}
	if err != nil {
		return a.failTask(&at, task, err), crashed
	}
	a.releaseInputs(task)
	runStart := at.now()
	if h == nil {
		res.Err = fmt.Errorf("staging: no handler registered for analysis %q", task.Analysis)
	} else {
		res.Output, res.Err = safeHandler(h, task, data)
	}
	at.phase(phaseRun, runStart, &res, res.Err)
	// A drained Result, handed back by Recycle, carries this one.
	if out = a.free.Get(); out == nil {
		out = new(Result)
	}
	*out = res
	return out, false
}

// puller is one bucket's pull scratch, reused by every task it runs: a
// worker goroutine per input of the widest task so far, each fed on its
// own channel, the channel they answer on and the slice the payloads
// are gathered in.
type puller struct {
	ep      *dart.Endpoint
	gets    []chan xfer
	arrived chan xfer
	data    [][]byte
}

// xfer is one input's transfer: what a worker is asked to Get and,
// filled in, its answer.
type xfer struct {
	i        int
	h        dart.MemHandle
	deadline time.Time
	data     []byte
	d        time.Duration
	err      error
}

func (pl *puller) work(gets <-chan xfer) {
	for x := range gets {
		x.data, x.d, x.err = pl.ep.GetDeadline(x.h, x.deadline)
		pl.arrived <- x
	}
}

// stop ends the workers, idle between tasks, as the bucket leaves.
func (pl *puller) stop() {
	for _, g := range pl.gets {
		close(g)
	}
}

// pull issues every input's Get at once, one per worker, and collects
// all of them — even after a failure, so every pulled buffer has an
// owner to recycle it. The payloads come back in the bucket's scratch
// slice, ordered as in Task.Inputs (nil where a pull failed), with the
// first failure.
func (pl *puller) pull(task dataspaces.Task, res *Result) ([][]byte, error) {
	n := len(task.Inputs)
	if n > len(pl.gets) {
		pl.arrived, pl.data = make(chan xfer, n), make([][]byte, n)
		for len(pl.gets) < n {
			pl.gets = append(pl.gets, make(chan xfer, 1))
			go pl.work(pl.gets[len(pl.gets)-1])
		}
	}
	for i, in := range task.Inputs {
		pl.gets[i] <- xfer{i: i, h: in.Handle, deadline: task.Deadline}
	}
	data := pl.data[:n]
	var err error
	for range n {
		p := <-pl.arrived
		if p.err != nil {
			if err == nil {
				err = fmt.Errorf("staging: pull input %d of task %d: %w", p.i, task.ID, p.err)
			}
			continue
		}
		data[p.i] = p.data
		res.BytesMoved += int64(len(p.data))
		res.MoveModeledSum += p.d
	}
	return data, err
}

// releaseInputs hands every input descriptor to the release callback,
// letting the producer reclaim its pinned regions.
func (a *Area) releaseInputs(task dataspaces.Task) {
	if a.release != nil {
		for _, in := range task.Inputs {
			a.release(in)
		}
	}
}

// safeHandler isolates handler panics: a panicking analysis yields an
// errored result instead of killing its bucket (which would starve the
// staging area and hang the drain).
func safeHandler(h Handler, task dataspaces.Task, data [][]byte) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("staging: handler panic: %v", r)
		}
	}()
	return h(task, data)
}
