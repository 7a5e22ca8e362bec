package staging

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/netsim"
)

// rig wires up a fabric, service and producer endpoint for tests.
type rig struct {
	fabric *dart.Fabric
	ds     *dataspaces.Service
	prod   *dart.Endpoint
}

func newRig(t *testing.T) *rig {
	t.Helper()
	f := dart.NewFabric(netsim.New(netsim.Gemini()))
	ds, err := dataspaces.New(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{fabric: f, ds: ds, prod: f.Register("sim-0")}
}

// publish registers payload with DART and submits a task for it.
func (r *rig) publish(t *testing.T, analysis string, step int, payloads ...[]byte) {
	t.Helper()
	var inputs []dataspaces.Descriptor
	for i, p := range payloads {
		h := r.prod.RegisterMem(p)
		inputs = append(inputs, dataspaces.Descriptor{
			Name: analysis, Version: step, Rank: i, Handle: h,
		})
	}
	if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: analysis, Step: step, Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTaskRoundTrip(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "concat", func(task dataspaces.Task, data [][]byte) (any, error) {
		var sb strings.Builder
		for _, d := range data {
			sb.Write(d)
		}
		return sb.String(), nil
	})
	a.Start()
	r.publish(t, "concat", 1, []byte("in-"), []byte("transit"))
	res := <-a.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Output.(string) != "in-transit" {
		t.Fatalf("handler output wrong: %v", res.Output)
	}
	if res.BytesMoved != int64(len("in-transit")) {
		t.Fatalf("bytes moved: want %d, got %d", len("in-transit"), res.BytesMoved)
	}
	if res.MoveModeledSum <= 0 {
		t.Fatalf("movement accounting wrong: %+v", res)
	}
	r.ds.Close()
	a.Wait()
}

func TestMissingHandler(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	a.Start()
	r.publish(t, "unknown", 1, []byte("x"))
	res := <-a.Results()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "no handler") {
		t.Fatalf("want missing-handler error, got %v", res.Err)
	}
	r.ds.Close()
	a.Wait()
}

func TestPullErrorSurfaces(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) { return nil, nil })
	a.Start()
	// Submit a task whose handle points nowhere.
	r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "x", Step: 1, Inputs: []dataspaces.Descriptor{{
		Name: "x", Handle: dart.MemHandle{Endpoint: 999},
	}}})
	res := <-a.Results()
	if res.Err == nil {
		t.Fatal("broken handle must surface an error")
	}
	r.ds.Close()
	a.Wait()
}

func TestReleaseCallback(t *testing.T) {
	r := newRig(t)
	var mu sync.Mutex
	released := 0
	a, _ := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) {
		mu.Lock()
		released++
		mu.Unlock()
		r.prod.Reclaim(d.Handle)
	})
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) { return nil, nil })
	a.Start()
	r.publish(t, "x", 1, []byte("a"), []byte("b"))
	<-a.Results()
	mu.Lock()
	if released != 2 {
		t.Fatalf("release callback: want 2, got %d", released)
	}
	mu.Unlock()
	r.ds.Close()
	a.Wait()
}

// TestTemporalMultiplexing is the core pipelining property: with
// in-transit work slower than the submission cadence, successive
// timesteps run on different buckets concurrently — at some instant at
// least two handlers are in flight — so total wall time is far below
// the serial sum.
func TestTemporalMultiplexing(t *testing.T) {
	r := newRig(t)
	const buckets = 4
	const steps = 8
	const workT = 50 * time.Millisecond
	a, _ := New(r.fabric, r.ds, buckets, nil)
	var inFlight, peak atomic.Int32
	a.HandleT("", "slow", func(task dataspaces.Task, data [][]byte) (any, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(workT)
		return task.Step, nil
	})
	a.Start()
	start := time.Now()
	for s := 0; s < steps; s++ {
		r.publish(t, "slow", s, []byte("d"))
	}
	for s := 0; s < steps; s++ {
		if res := <-a.Results(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	elapsed := time.Since(start)
	serial := time.Duration(steps) * workT
	if elapsed > serial*3/4 {
		t.Fatalf("no pipelining: %v elapsed for %v serial work on %d buckets", elapsed, serial, buckets)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("timesteps were not multiplexed across buckets: at most %d handler in flight", p)
	}
	r.ds.Close()
	a.Wait()
}

func TestResultsClosedAfterWait(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 2, nil)
	a.Start()
	r.ds.Close()
	a.Wait()
	if _, ok := <-a.Results(); ok {
		t.Fatal("results channel must be closed after Wait")
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t)
	if _, err := New(r.fabric, r.ds, 0, nil); err == nil {
		t.Fatal("zero buckets must error")
	}
}

// TestHandlerPanicIsolated: a panicking analysis yields an errored
// result; the bucket survives and processes subsequent tasks.
func TestHandlerPanicIsolated(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	calls := 0
	a.HandleT("", "flaky", func(task dataspaces.Task, data [][]byte) (any, error) {
		calls++
		if calls == 1 {
			panic("analysis bug")
		}
		return "recovered", nil
	})
	a.Start()
	r.publish(t, "flaky", 1, []byte("x"))
	res := <-a.Results()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
		t.Fatalf("want panic error, got %v", res.Err)
	}
	r.publish(t, "flaky", 2, []byte("x"))
	res = <-a.Results()
	if res.Err != nil || res.Output != "recovered" {
		t.Fatalf("bucket did not survive the panic: %+v", res)
	}
	r.ds.Close()
	a.Wait()
}

// TestLaterRegistrationReplaces: a route has one in-transit handler; a
// later registration replaces the earlier one.
func TestLaterRegistrationReplaces(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) { return "first", nil })
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) { return "last", nil })
	a.Start()
	r.publish(t, "x", 1, []byte("d"))
	if res := <-a.Results(); res.Output != "last" {
		t.Fatalf("want the handler registered last, got %v", res.Output)
	}
	r.ds.Close()
	a.Wait()
}
