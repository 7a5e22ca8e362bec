package staging

import (
	"bytes"
	"runtime"
	"testing"

	"insitu/internal/dataspaces"
)

// TestWarmTaskTripAllocatesNothing follows one task over the whole
// transfer path: two ranks Put their descriptors, TakeT hands them to
// SubmitSpec, a waiting bucket pulls both inputs and runs a buffered
// handler that allocates nothing, and the drain hands the *Result back
// with Recycle. Once the free lists and the bucket's pull scratch are
// warm, that trip allocates nothing: a channel, closure or slice made
// per task or per input anywhere on it, or a copy of the index slice,
// fails it.
func TestWarmTaskTripAllocatesNothing(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) {
		if _, err := r.prod.Reclaim(d.Handle); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{bytes.Repeat([]byte("a"), 300), bytes.Repeat([]byte("b"), 700)}
	a.HandleT("", "x", func(task dataspaces.Task, data [][]byte) (any, error) {
		for i, d := range data {
			if !bytes.Equal(d, payloads[i]) {
				t.Errorf("step %d: input %d is not rank %d's payload", task.Step, i, i)
			}
		}
		return nil, nil
	})
	a.Start()
	defer func() {
		r.ds.Close()
		a.Wait()
	}()

	step := 0
	trip := func() {
		step++
		for rank, p := range payloads {
			h := r.prod.RegisterMem(p)
			r.ds.Put(dataspaces.Descriptor{Name: "x", Version: step, Rank: rank, Handle: h})
		}
		inputs := r.ds.TakeT("", "x", step)
		for r.ds.FreeBuckets() == 0 {
			runtime.Gosched()
		}
		if _, err := r.ds.SubmitSpec(dataspaces.TaskSpec{Analysis: "x", Step: step, Inputs: inputs}); err != nil {
			t.Fatal(err)
		}
		res := <-a.Results()
		if res.Err != nil || res.BytesMoved != 1000 {
			t.Fatalf("step %d: err %v, %d bytes moved, want 1000", step, res.Err, res.BytesMoved)
		}
		a.Recycle(res)
	}
	for range 3 {
		trip()
	}
	if n := testing.AllocsPerRun(100, trip); n != 0 {
		t.Errorf("a warm task allocates %v objects from Put to the drain, want 0", n)
	}
	if n := r.prod.Regions(); n != 0 {
		t.Errorf("%d producer regions still pinned", n)
	}
}
