package staging

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
	"insitu/internal/obs"
)

func concat(task dataspaces.Task, data [][]byte) (any, error) {
	var sb strings.Builder
	for _, d := range data {
		sb.Write(d)
	}
	return sb.String(), nil
}

// taskSummary is everything a caller can observe of one task: its
// final Result, the area's failure counters, what was released and is
// still pinned, and the task spans its attempts recorded.
type taskSummary struct {
	Output     any
	Err        string
	Attempts   int
	DeadLetter bool
	Res        ResilienceStats
	Released   int64
	Pinned     int
	Spans      []string
}

// runTaskSummary runs one task through a one-bucket area whose route
// has fn registered, and summarises it.
func runTaskSummary(t *testing.T, r *rig, crash bool, fn Handler, inputs []dataspaces.Descriptor) taskSummary {
	t.Helper()
	var released atomic.Int64
	a, err := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) {
		released.Add(1)
		r.prod.Reclaim(d.Handle)
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := obs.NewPlane()
	a.SetPlane(pl)
	a.HandleT("", "x", fn)
	a.Start()
	if crash {
		a.CrashBucket(0)
	}
	if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "x", Step: 1, Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
	var res *Result
	select {
	case res = <-a.Results():
	case <-time.After(10 * time.Second):
		t.Fatal("task never completed")
	}
	r.ds.Close()
	a.Wait()
	s := taskSummary{
		Output:     res.Output,
		Attempts:   res.Attempts,
		DeadLetter: res.DeadLetter,
		Res:        a.Resilience(),
		Released:   released.Load(),
		Pinned:     r.prod.Regions(),
	}
	if res.Err != nil {
		s.Err = res.Err.Error()
	}
	for _, sp := range pl.Recorder().SpansCat(obs.CatTask) {
		s.Spans = append(s.Spans, sp.Name)
	}
	sort.Strings(s.Spans)
	return s
}

// TestHandlerKindsShareTaskPath: the task path a handler runs on — the
// pull, the crash checkpoints, the fault rules and the buffer rule,
// all the bucket's — ends each case in one fixed task: the result,
// attempts, requeues, dead letters, releases, pinned regions and
// attempt spans, whether the task succeeds, meets a crash at
// assignment, a pull that never succeeds, a handler error or a handler
// panic.
func TestHandlerKindsShareTaskPath(t *testing.T) {
	fail := func(dataspaces.Task, [][]byte) (any, error) { return nil, errors.New("bad statistics") }
	boom := func(dataspaces.Task, [][]byte) (any, error) { panic("analysis bug") }
	good := func(r *rig) []dataspaces.Descriptor {
		var in []dataspaces.Descriptor
		for i, p := range []string{"in-", "tran", "sit"} {
			in = append(in, dataspaces.Descriptor{Name: "x", Version: 1, Rank: i, Handle: r.prod.RegisterMem([]byte(p))})
		}
		return in
	}
	// One input whose region the producer already reclaimed: every
	// pull of it fails.
	broken := func(r *rig) []dataspaces.Descriptor {
		bad := r.prod.RegisterMem([]byte("gone"))
		if _, err := r.prod.Reclaim(bad); err != nil {
			t.Fatal(err)
		}
		return []dataspaces.Descriptor{
			{Name: "x", Version: 1, Rank: 0, Handle: r.prod.RegisterMem([]byte("in-"))},
			{Name: "x", Version: 1, Rank: 1, Handle: bad},
		}
	}
	ran := []string{"task.attempt", "task.done", "task.pull", "task.run"}
	cases := []struct {
		name   string
		crash  bool
		fn     Handler
		inputs func(*rig) []dataspaces.Descriptor
		want   taskSummary // Err and Res.Crashes aside
	}{
		{"ok", false, concat, good,
			taskSummary{Output: "in-transit", Attempts: 1, Released: 3, Spans: ran}},
		{"crash-at-assignment", true, concat, good,
			taskSummary{Output: "in-transit", Attempts: 2, Res: ResilienceStats{Crashes: 1, Requeues: 1}, Released: 3,
				Spans: []string{"bucket.crash", "task.attempt", "task.attempt", "task.done", "task.pull", "task.run"}}},
		{"pull-failure", false, concat, broken,
			taskSummary{Attempts: 3, DeadLetter: true, Res: ResilienceStats{Requeues: 2}, Released: 2,
				Spans: []string{"task.attempt", "task.attempt", "task.attempt", "task.done", "task.pull", "task.pull", "task.pull"}}},
		{"handler-error", false, fail, good,
			taskSummary{Attempts: 1, Released: 3, Spans: ran}},
		{"handler-panic", false, boom, good,
			taskSummary{Attempts: 1, Released: 3, Spans: ran}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			got := runTaskSummary(t, r, c.crash, c.fn, c.inputs(r))
			errText := got.Err
			got.Err = ""
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("task outcome:\n got %+v\nwant %+v", got, c.want)
			}
			if c.want.Output == nil && errText == "" {
				t.Fatal("a failed task surfaced no error")
			}
		})
	}
}

// TestCrashAfterPullRequeuesEitherKind: a bucket killed while its pull
// is in flight hands the task back at the after-pull checkpoint, before
// releasing the producer regions, and the retry pulls them again. The
// buffered handler (streaming=false) is the one handler kind staging
// has; the case keeps its name so the test reads the same in old runs.
func TestCrashAfterPullRequeuesEitherKind(t *testing.T) {
	t.Run("streaming=false", func(t *testing.T) {
		payload := make([]byte, 1<<20) // ~90ms scaled transfer each
		r := slowRig(t)
		var released atomic.Int64
		a, _ := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) {
			released.Add(1)
			r.prod.Reclaim(d.Handle)
		})
		a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) {
			n := 0
			for _, d := range data {
				n += len(d)
			}
			return n, nil
		})
		a.Start()
		net := r.fabric.Network()
		before := net.Stats().BytesMoved
		r.publish(t, "x", 1, payload, payload, payload, payload)
		// A payload transfer is charged before its wire time: once one is
		// charged, the bucket is past the at-assignment checkpoint with its
		// scaled wire time still to go.
		for net.Stats().BytesMoved-before < int64(len(payload)) {
			time.Sleep(100 * time.Microsecond)
		}
		a.CrashBucket(0)
		res := <-a.Results()
		if res.Err != nil || res.Output != 4*len(payload) {
			t.Fatalf("retry after the crash: output %v err %v", res.Output, res.Err)
		}
		// The crash came after the pull, so the retry pulled every input
		// a second time.
		if moved := net.Stats().BytesMoved - before; res.Attempts != 2 || moved != 2*4*int64(len(payload)) {
			t.Fatalf("attempts %d, %d bytes moved: want one crash after the pull, and 2 pulls of %d bytes", res.Attempts, moved, 4*len(payload))
		}
		if st := a.Resilience(); st.Crashes != 1 || st.Requeues != 1 {
			t.Fatalf("resilience stats %+v", st)
		}
		if released.Load() != 4 || r.prod.Regions() != 0 {
			t.Fatalf("released %d inputs, %d still pinned: want 4 and 0", released.Load(), r.prod.Regions())
		}
		r.ds.Close()
		a.Wait()
	})
}

// slowRig builds a fabric whose transfers take real wall time
// (TimeScale stretches the modeled Gemini durations), so a crash can
// land while a pull is in flight.
func slowRig(t *testing.T) *rig {
	t.Helper()
	cfg := netsim.Gemini()
	// A 1 MB BTE transfer models ~177us; scale so it takes ~90ms,
	// wide enough a window for the crash to land in under load.
	cfg.TimeScale = 0.002
	f := dart.NewFabric(netsim.New(cfg))
	ds, err := dataspaces.New(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{fabric: f, ds: ds, prod: f.Register("sim-0")}
}
