package staging

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/faults"
)

// TestCrashedBucketRequeuesTask: a killed bucket hands its task back to
// the queue, a replacement goroutine respawns, and the retry completes
// the work with the attempt recorded.
func TestCrashedBucketRequeuesTask(t *testing.T) {
	r := newRig(t)
	a, err := New(r.fabric, r.ds, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return string(data[0]), nil
	})
	a.Start()
	// Kill bucket 0 while it is parked on BucketReady: the next task it
	// is assigned hits the at-assignment checkpoint and is requeued.
	if !a.CrashBucket(0) {
		t.Fatal("CrashBucket(0) refused a valid id")
	}
	if a.CrashBucket(1) {
		t.Fatal("CrashBucket must reject an out-of-range id")
	}
	r.publish(t, "work", 1, []byte("payload"))
	select {
	case res := <-a.Results():
		if res.Err != nil {
			t.Fatalf("retry after crash failed: %v", res.Err)
		}
		if res.Output != "payload" {
			t.Fatalf("wrong output: %v", res.Output)
		}
		if res.Attempts != 2 {
			t.Fatalf("want 2 attempts (crash + success), got %d", res.Attempts)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("task never completed after bucket crash — no respawn?")
	}
	st := a.Resilience()
	if st.Crashes != 1 || st.Requeues != 1 {
		t.Fatalf("resilience stats %+v", st)
	}
	r.ds.Close()
	a.Wait()
}

// TestDeadLetterAfterMaxAttempts: with a budget of one attempt, a crash
// dead-letters the task — the Result carries ErrDeadLetter and the
// pinned producer regions are released rather than leaked.
func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	r := newRig(t)
	var released atomic.Int64
	a, err := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) { released.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	a.maxAttempts = 1
	a.HandleT("", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return nil, nil
	})
	a.Start()
	a.CrashBucket(0)
	r.publish(t, "work", 1, []byte("x"), []byte("y"))
	res := <-a.Results()
	if !res.DeadLetter || !errors.Is(res.Err, ErrDeadLetter) {
		t.Fatalf("want dead-letter result, got %+v", res)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.Attempts)
	}
	if released.Load() != 2 {
		t.Fatalf("dead-letter must release all %d inputs, released %d", 2, released.Load())
	}
	st := a.Resilience()
	if st.Requeues != 0 {
		t.Fatalf("resilience stats %+v", st)
	}
	r.ds.Close()
	a.Wait()
}

// TestPullFailureRequeuesThenDeadLetters: a task whose inputs can never
// be pulled (every transfer dropped) burns through the attempt budget
// via requeues and ends as a dead letter, releasing its inputs exactly
// once; the bucket then serves the next task once the fabric heals.
func TestPullFailureRequeuesThenDeadLetters(t *testing.T) {
	r := newRig(t)
	r.fabric.Network().SetFaults(faults.New(faults.Config{Seed: 3, Default: faults.Rates{Drop: 1}}))
	r.fabric.SetRetryPolicy(dart.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})
	var released atomic.Int64
	a, err := New(r.fabric, r.ds, 1, func(d dataspaces.Descriptor) { released.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	a.HandleT("", "work", func(task dataspaces.Task, data [][]byte) (any, error) {
		return nil, nil
	})
	a.Start()
	r.publish(t, "work", 1, []byte("unreachable"))
	res := <-a.Results()
	if !res.DeadLetter || !errors.Is(res.Err, ErrDeadLetter) {
		t.Fatalf("want dead-letter result, got err=%v", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want the default budget of 3", res.Attempts)
	}
	if released.Load() != 1 {
		t.Fatalf("input released %d times, want exactly once", released.Load())
	}
	st := a.Resilience()
	if st.Requeues != 2 || st.Crashes != 0 {
		t.Fatalf("resilience stats %+v", st)
	}
	// Heal the fabric; the bucket must still be serving.
	r.fabric.Network().SetFaults(nil)
	r.publish(t, "work", 2, []byte("back"))
	if res := <-a.Results(); res.Err != nil || res.Attempts != 1 {
		t.Fatalf("bucket did not survive the pull failure: %+v", res)
	}
	r.ds.Close()
	a.Wait()
}

// TestHandlerErrorFreesBucket: satellite coverage for safeHandler's
// non-panic path — a handler returning an error yields an errored
// Result (no requeue: deterministic failures would just repeat) and the
// bucket keeps serving.
func TestHandlerErrorFreesBucket(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 1, nil)
	calls := 0
	a.HandleT("", "flaky", func(task dataspaces.Task, data [][]byte) (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("bad statistics")
		}
		return "ok", nil
	})
	a.Start()
	r.publish(t, "flaky", 1, []byte("x"))
	res := <-a.Results()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "bad statistics") {
		t.Fatalf("handler error lost: %v", res.Err)
	}
	if res.DeadLetter || res.Attempts != 1 {
		t.Fatalf("handler errors must not requeue: %+v", res)
	}
	r.publish(t, "flaky", 2, []byte("x"))
	res = <-a.Results()
	if res.Err != nil || res.Output != "ok" {
		t.Fatalf("bucket did not survive the handler error: %+v", res)
	}
	if a.Resilience().Requeues != 0 {
		t.Fatal("handler error must not consume the attempt budget")
	}
	r.ds.Close()
	a.Wait()
}

// TestProbeHandle: the health-probe region is pullable.
func TestProbeHandle(t *testing.T) {
	r := newRig(t)
	a, _ := New(r.fabric, r.ds, 2, nil)
	h := a.ProbeHandle()
	if _, _, err := r.prod.Get(h); err != nil {
		t.Fatalf("probe region not pullable: %v", err)
	}
	r.ds.Close()
	a.Start()
	a.Wait()
}
