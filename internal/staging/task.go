package staging

import (
	"fmt"
	"time"

	"insitu/internal/bufpool"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
)

// runTask executes one attempt at an assigned task: the one task path
// both handler kinds run on. It returns the Result to emit (nil when
// the task was requeued instead) and whether the bucket crashed while
// holding the task.
func (a *Area) runTask(id int, ep *dart.Endpoint, kill <-chan struct{}, task dataspaces.Task) (out *Result, crashed bool) {
	at := a.beginAttempt(id, task)
	defer func() { at.end(out, crashed) }()
	// Checkpoint: crash at assignment. The task never started; it is
	// requeued and the replacement bucket (or a peer) picks it up.
	if killed(kill) {
		return a.failTask(&at, id, task, fmt.Errorf("bucket %d crashed at assignment", id)), true
	}
	a.mu.Lock()
	st := a.stages[routeKey{task.Tenant, task.Analysis}]
	a.mu.Unlock()
	c := st.begin(&at, task)
	res := Result{Task: task, Start: at.start, Attempts: task.Attempts + 1}

	pullStart := at.now()
	data, err := pull(ep, task, &res, &c)
	at.phase(phasePull, pullStart, &res, err)
	// The bucket owns every pulled buffer: they go back to the pool once
	// the handler has returned, or as soon as the attempt fails.
	defer func() {
		for _, p := range data {
			bufpool.Put(p) // a failed pull left nil, which Put ignores
		}
	}()

	// Checkpoint: crash after the pull but before releasing the
	// producer regions — the retry can therefore pull them again. A
	// failed pull keeps the regions pinned for the retry the same way.
	if err == nil && killed(kill) {
		err, crashed = fmt.Errorf("bucket %d crashed after pull", id), true
	}
	if err != nil {
		c.abort()
		return a.failTask(&at, id, task, err), crashed
	}
	a.releaseInputs(task)
	res.Output, res.Err = c.finish(&at, task, data)
	at.phase(phaseRun, c.start, &res, res.Err)
	return &res, false
}

// pull issues every input's Get at once and collects all of them — even
// after a failure, so every pulled buffer has an owner to recycle it.
// Each input goes to a streaming handler as its transfer lands; the
// payloads come back ordered as in Task.Inputs (nil where a pull
// failed) with the first failure.
func pull(ep *dart.Endpoint, task dataspaces.Task, res *Result, c *consumer) ([][]byte, error) {
	type pulled struct {
		i    int
		data []byte
		d    time.Duration
		err  error
	}
	arrived := make(chan pulled, len(task.Inputs))
	deadline := task.Deadline
	for i, in := range task.Inputs {
		go func(i int, h dart.MemHandle) {
			data, d, err := ep.GetDeadline(h, deadline)
			arrived <- pulled{i, data, d, err}
		}(i, in.Handle)
	}
	data := make([][]byte, len(task.Inputs))
	var err error
	for range task.Inputs {
		p := <-arrived
		if p.err != nil {
			if err == nil {
				err = fmt.Errorf("staging: pull input %d of task %d: %w", p.i, task.ID, p.err)
			}
			continue
		}
		data[p.i] = p.data
		res.BytesMoved += int64(len(p.data))
		res.MoveModeledSum += p.d
		if c.inputs != nil {
			c.inputs <- StreamInput{Index: p.i, Data: p.data}
		}
	}
	return data, err
}

// consumer is the handler side of one attempt, and the only place the
// two handler kinds differ: a streaming handler starts with the attempt
// and receives each input as its pull lands; a buffered one runs over
// the whole set once the pulls are done.
type consumer struct {
	st     stage
	inputs chan StreamInput // streaming only
	done   chan outcome     // streaming only
	start  time.Time        // when the handler started running
}

type outcome struct {
	out any
	err error
}

// begin opens the attempt's consumer, starting a streaming handler.
func (st stage) begin(at *attempt, task dataspaces.Task) consumer {
	c := consumer{st: st}
	if st.stream != nil {
		c.start = at.now()
		// Buffered to the input count, so the pull never blocks on a
		// handler that stopped reading.
		c.inputs = make(chan StreamInput, len(task.Inputs))
		c.done = make(chan outcome, 1)
		go runStream(st.stream, task, c.inputs, c.done)
	}
	return c
}

// runStream is a streaming handler's goroutine.
func runStream(sh StreamHandler, task dataspaces.Task, inputs <-chan StreamInput, done chan<- outcome) {
	out, err := safeHandler(func() (any, error) { return sh(task, inputs) })
	done <- outcome{out, err}
}

// finish completes the handler over the whole pulled set: it closes a
// streaming handler's channel and waits for its result, or runs a
// buffered handler.
func (c *consumer) finish(at *attempt, task dataspaces.Task, data [][]byte) (any, error) {
	if c.inputs != nil {
		close(c.inputs)
		oc := <-c.done
		return oc.out, oc.err
	}
	c.start = at.now()
	if c.st.buffered == nil {
		return nil, fmt.Errorf("staging: no handler registered for analysis %q", task.Analysis)
	}
	return safeHandler(func() (any, error) { return c.st.buffered(task, data) })
}

// abort ends a failed attempt. A streaming handler sees its channel
// close early; its result is discarded once it returns, so it no longer
// holds any input when the bucket recycles them.
func (c *consumer) abort() {
	if c.inputs != nil {
		close(c.inputs)
		<-c.done
	}
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
func safeHandler(fn func() (any, error)) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("staging: handler panic: %v", r)
		}
	}()
	return fn()
}
