package staging

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
)

// slowRig builds a fabric whose transfers take real wall time
// (TimeScale stretches the modeled Gemini durations), so overlap
// between movement and compute is observable.
func slowRig(t *testing.T) *rig {
	t.Helper()
	cfg := netsim.Gemini()
	// A 1 MB BTE transfer models ~177us; scale so it takes ~18ms; the
	// shared ingress link staggers concurrent arrivals, as a real
	// bucket NIC would.
	cfg.TimeScale = 0.01
	cfg.SharedLink = true
	f := dart.NewFabric(netsim.New(cfg))
	ds, err := dataspaces.New(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{fabric: f, ds: ds, prod: f.Register("sim-0")}
}

func TestStreamHandlerReceivesAllInputs(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	seen := map[int]string{}
	a.HandleStreamT("", "s", func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
		for i := range in {
			seen[i.Index] = string(i.Data)
		}
		return len(seen), nil
	})
	a.Start()
	r.publish(t, "s", 1, []byte("a"), []byte("b"), []byte("c"))
	res := <-a.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Output.(int) != 3 || seen[0] != "a" || seen[2] != "c" {
		t.Fatalf("streaming handler missed inputs: %v", seen)
	}
	if res.BytesMoved != 3 {
		t.Fatalf("bytes moved: want 3, got %d", res.BytesMoved)
	}
	r.ds.Close()
	a.Wait()
}

// TestStreamingHandlerOverlap is the paper's future-work claim: with
// per-input compute comparable to per-input transfer time, the
// streaming handler hides compute behind movement, so the task
// completes in roughly max(move, compute) + one input, while the
// buffered handler needs move + compute serialized.
func TestStreamingHandlerOverlap(t *testing.T) {
	const inputs = 6
	const perInputWork = 8 * time.Millisecond
	payload := make([]byte, 1<<20) // ~18ms modeled+scaled transfer each

	run := func(streaming bool) time.Duration {
		r := slowRig(t)
		a, _ := New(r.fabric, r.ds, 1, nil)
		work := func() { time.Sleep(perInputWork) }
		if streaming {
			a.HandleStreamT("", "x", func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
				for range in {
					work()
				}
				return nil, nil
			})
		} else {
			a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) {
				for range data {
					work()
				}
				return nil, nil
			})
		}
		a.Start()
		payloads := make([][]byte, inputs)
		for i := range payloads {
			payloads[i] = payload
		}
		r.publish(t, "x", 1, payloads...)
		res := <-a.Results()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		r.ds.Close()
		a.Wait()
		return res.End.Sub(res.Start)
	}

	buffered := run(false)
	streaming := run(true)
	// The streaming task must be meaningfully faster; the precise
	// ratio depends on scheduling, so assert a conservative margin.
	if streaming >= buffered {
		t.Fatalf("streaming (%v) not faster than buffered (%v)", streaming, buffered)
	}
	t.Logf("buffered=%v streaming=%v", buffered, streaming)
}

// TestStreamHandlerPullError: a streaming task with an unpullable input
// is retried and dead-lettered like a buffered one. Each attempt's
// handler still sees the input that did arrive, but the failed attempt
// discards its result, and the inputs are released once, at the dead
// letter.
func TestStreamHandlerPullError(t *testing.T) {
	r := newRig(t)
	var released, calls atomic.Int64
	a, _ := New(r.fabric, r.ds, 1, func(dataspaces.Descriptor) { released.Add(1) })
	a.HandleStreamT("", "x", func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
		calls.Add(1)
		n := 0
		for range in {
			n++
		}
		if n != 1 {
			return nil, fmt.Errorf("handler saw %d inputs, want the good one", n)
		}
		return n, nil
	})
	a.Start()
	good := r.prod.RegisterMem([]byte("ok"))
	r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "x", Step: 1, Inputs: []dataspaces.Descriptor{
		{Name: "x", Rank: 0, Handle: good},
		{Name: "x", Rank: 1, Handle: dart.MemHandle{Endpoint: 999}},
	}})
	res := <-a.Results()
	if !res.DeadLetter || !errors.Is(res.Err, ErrDeadLetter) || res.Output != nil {
		t.Fatalf("broken handle must dead-letter the task, got %+v", res)
	}
	if res.Attempts != 3 || calls.Load() != 3 || released.Load() != 2 {
		t.Fatalf("attempts %d, handler calls %d, releases %d: want 3, 3, 2",
			res.Attempts, calls.Load(), released.Load())
	}
	r.ds.Close()
	a.Wait()
}

// TestLaterRegistrationReplaces: a route has one in-transit handler; a
// later registration of either kind replaces the earlier one.
func TestLaterRegistrationReplaces(t *testing.T) {
	buffered := func(task dataspaces.Task, data [][]byte) (any, error) { return "buffered", nil }
	streaming := func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
		for range in {
		}
		return "streaming", nil
	}
	for _, streamLast := range []bool{true, false} {
		r := newRig(t)
		a, _ := New(r.fabric, r.ds, 1, nil)
		want := "streaming"
		if streamLast {
			a.HandleT("", "x", buffered)
			a.HandleStreamT("", "x", streaming)
		} else {
			a.HandleStreamT("", "x", streaming)
			a.HandleT("", "x", buffered)
			want = "buffered"
		}
		a.Start()
		r.publish(t, "x", 1, []byte("d"))
		if res := <-a.Results(); res.Output != want {
			t.Fatalf("want the %s handler registered last, got %v", want, res.Output)
		}
		r.ds.Close()
		a.Wait()
	}
}
