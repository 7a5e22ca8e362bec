package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderSequentialIDs(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	id1 := r.Record(0, CatSim, "sim", "step 1", t0, t0.Add(time.Millisecond))
	id2 := r.Event(0, CatTask, "queue", "task.submit", t0.Add(time.Millisecond))
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids not sequential: %d, %d", id1, id2)
	}
	if r.Len() != 2 {
		t.Fatalf("len: want 2, got %d", r.Len())
	}
}

func TestRecorderCategoryFilter(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	r.Record(0, CatSim, "sim", "step 1", t0, t0.Add(time.Millisecond))
	r.Record(0, CatDart, "sim-0", "dart.get", t0, t0.Add(time.Microsecond))
	r.Event(0, CatTask, "queue", "task.submit", t0)
	if got := len(r.SpansCat(CatSim)); got != 1 {
		t.Fatalf("timeline spans: want 1, got %d", got)
	}
	if got := len(r.SpansCat(CatDart)); got != 1 {
		t.Fatalf("dart spans: want 1, got %d", got)
	}
	if got := len(r.Spans()); got != 3 {
		t.Fatalf("all spans: want 3, got %d", got)
	}
}

func TestRecorderSpansSortedByStart(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	r.Record(0, CatSim, "a", "later", t0.Add(time.Second), t0.Add(2*time.Second))
	r.Record(0, CatSim, "b", "earlier", t0, t0.Add(time.Millisecond))
	spans := r.Spans()
	if spans[0].Name != "earlier" || spans[1].Name != "later" {
		t.Fatalf("spans not sorted by start: %q, %q", spans[0].Name, spans[1].Name)
	}
}

func TestBeginAssignsParentableID(t *testing.T) {
	r := NewRecorder()
	act := r.Begin(0, CatTask, "bucket-0", "task.attempt", Int("attempt", 1))
	if act.ID() != 1 {
		t.Fatalf("active id: want 1, got %d", act.ID())
	}
	child := r.Record(act.ID(), CatTask, "bucket-0", "task.pull", time.Now(), time.Now())
	act.End(Str("outcome", "ok"))
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	var attempt, pull *Span
	for i := range spans {
		switch spans[i].Name {
		case "task.attempt":
			attempt = &spans[i]
		case "task.pull":
			pull = &spans[i]
		}
	}
	if attempt == nil || pull == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if pull.Parent != attempt.ID || pull.ID != child {
		t.Fatalf("parent linkage wrong: pull.Parent=%d attempt.ID=%d", pull.Parent, attempt.ID)
	}
	// End-time attrs must be appended after the Begin-time ones.
	if len(attempt.Attrs) != 2 || attempt.Attrs[1].Key != "outcome" {
		t.Fatalf("attempt attrs wrong: %+v", attempt.Attrs)
	}
}

func TestEmptyAttrsDropped(t *testing.T) {
	r := NewRecorder()
	r.Event(0, CatDart, "sim-0", "dart.retry", time.Now(), Str("op", "get"), Error(nil))
	spans := r.Spans()
	if len(spans[0].Attrs) != 1 {
		t.Fatalf("nil-error attr not dropped: %+v", spans[0].Attrs)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", Str("op", "get"))
	b := reg.Counter("x_total", "help", Str("op", "get"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := reg.Counter("x_total", "help", Str("op", "put"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	if reg.Families() != 1 {
		t.Fatalf("families: want 1, got %d", reg.Families())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.GaugeFunc("x_total", "help", func() float64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count: want 4, got %d", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("sum: want 555.5, got %g", h.Sum())
	}
	want := []int64{1, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d: want %d, got %d", i, want[i], got)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: want %g, got %g", i, want[i], got[i])
		}
	}
}

// TestConcurrentRecordAndExport is the race hammer: goroutines record
// spans and bump every instrument kind while other goroutines export
// all three formats. Run with -race; correctness here is "no race, no
// panic, exports parse".
func TestConcurrentRecordAndExport(t *testing.T) {
	pl := NewPlane()
	rec := pl.Recorder()
	reg := pl.Registry()
	ctr := reg.Counter("hammer_ops_total", "ops", Str("op", "x"))
	reg.GaugeFunc("hammer_depth", "depth", func() float64 { return float64(ctr.Value()) })
	h := reg.Histogram("hammer_seconds", "latency", LatencyBuckets)
	reg.CounterFunc("hammer_fn_total", "sampled", func() float64 { return float64(rec.Len()) })

	const writers, rounds = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				act := rec.Begin(0, CatTask, "bucket-0", "task.attempt", Int("writer", w))
				rec.Record(act.ID(), CatDart, "bucket-0", "task.pull", time.Now(), time.Now())
				act.End(Str("outcome", "ok"))
				rec.Event(0, CatAdmit, "overload", "admit", time.Now(), Int("i", i))
				ctr.Inc()
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	var rg sync.WaitGroup
	for rdr := 0; rdr < 2; rdr++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := WriteChromeTrace(io.Discard, rec); err != nil {
					t.Error(err)
				}
				if err := WriteJSONL(io.Discard, rec); err != nil {
					t.Error(err)
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
				rec.Spans()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if got := rec.Len(); got != writers*rounds*3 {
		t.Fatalf("spans: want %d, got %d", writers*rounds*3, got)
	}
	if ctr.Value() != writers*rounds {
		t.Fatalf("counter: want %d, got %d", writers*rounds, ctr.Value())
	}
	if h.Count() != writers*rounds {
		t.Fatalf("histogram count: want %d, got %d", writers*rounds, h.Count())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hammer_ops_total") {
		t.Fatal("final export missing hammer_ops_total")
	}
}

func TestPlaneString(t *testing.T) {
	pl := NewPlane()
	pl.Recorder().Event(0, CatSim, "sim", "mark", time.Now())
	pl.Registry().Counter("a_total", "help")
	if got := pl.String(); got != "obs.Plane{1 spans, 1 metric families}" {
		t.Fatalf("String: %q", got)
	}
}
