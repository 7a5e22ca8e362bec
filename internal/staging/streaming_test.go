package staging

import (
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
	a, _ := New(r.fabric, r.ds, 1)
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
		a, _ := New(r.fabric, r.ds, 1)
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

func TestStreamHandlerPullError(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1)
	a.HandleStreamT("", "x", func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
		n := 0
		for range in {
			n++
		}
		return n, nil
	})
	a.Start()
	// One good input, one broken handle: the handler still gets the
	// good one and the error is surfaced.
	good := r.prod.RegisterMem([]byte("ok"))
	r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "x", Step: 1, Inputs: []dataspaces.Descriptor{
		{Name: "x", Rank: 0, Handle: good},
		{Name: "x", Rank: 1, Handle: dart.MemHandle{Endpoint: 999}},
	}})
	res := <-a.Results()
	if res.Err == nil {
		t.Fatal("broken handle must surface an error")
	}
	if res.Output.(int) != 1 {
		t.Fatalf("handler should still receive the good input, got %v", res.Output)
	}
	r.ds.Close()
	a.Wait()
}

// TestStreamPrecedence: a streaming handler shadows a buffered one of
// the same name.
func TestStreamPrecedence(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1)
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) { return "buffered", nil })
	a.HandleStreamT("", "x", func(task dataspaces.Task, in <-chan StreamInput) (any, error) {
		for range in {
		}
		return "streaming", nil
	})
	a.Start()
	r.publish(t, "x", 1, []byte("d"))
	res := <-a.Results()
	if res.Output != "streaming" {
		t.Fatalf("streaming handler must take precedence, got %v", res.Output)
	}
	r.ds.Close()
	a.Wait()
}
