package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// add records one occupancy span at millisecond offsets from t0.
func add(r *Recorder, t0 time.Time, lane, label string, startMs, endMs int) {
	r.Record(0, CatSim, lane, label,
		t0.Add(time.Duration(startMs)*time.Millisecond),
		t0.Add(time.Duration(endMs)*time.Millisecond))
}

func TestTimelineSpansSorted(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	add(r, t0, "b", "later", 10, 20)
	add(r, t0, "a", "earlier", 0, 5)
	spans := r.SpansCat(CatSim)
	if len(spans) != 2 || spans[0].Name != "earlier" {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
}

func TestTimelineLanesSimFirst(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	for _, lane := range []string{"bucket-1", "bucket-0", "sim"} {
		add(r, t0, lane, "x", 0, 1)
	}
	lanes := TimelineLanes(r)
	if lanes[0] != "sim" || lanes[1] != "bucket-0" || lanes[2] != "bucket-1" {
		t.Fatalf("lane order wrong: %v", lanes)
	}
}

func TestGanttRendering(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	add(r, t0, "sim", "step 1", 0, 10)
	add(r, t0, "bucket-0", "topology@1", 10, 100)
	out := Gantt(r, 40)
	if !strings.Contains(out, "sim") || !strings.Contains(out, "bucket-0") {
		t.Fatalf("lanes missing:\n%s", out)
	}
	// The bucket row must contain a long run of '#'.
	lines := strings.Split(out, "\n")
	var bucketRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "bucket-0") {
			bucketRow = l
		}
	}
	if strings.Count(bucketRow, "#") < 20 {
		t.Fatalf("bucket span not drawn:\n%s", out)
	}
	if Gantt(NewRecorder(), 40) != "(empty timeline)\n" {
		t.Fatal("empty timeline rendering wrong")
	}
}

// TestGanttDrawsOccupancyOnly: the views draw root task.attempt and
// sim.step spans; instant events, child spans and other categories
// stay out of the chart and of its extent.
func TestGanttDrawsOccupancyOnly(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	r.Record(0, CatSim, "sim", "sim.step", ms(0), ms(10))
	att := r.Record(0, CatTask, "bucket-0", "task.attempt", ms(10), ms(20))
	r.Record(att, CatTask, "bucket-0", "task.pull", ms(10), ms(12))
	r.Event(0, CatTask, "bucket-0", "task.done", ms(20))
	r.Event(0, CatTask, "queue", "task.submit", ms(5))
	r.Event(0, CatSim, "recovery", "recovery.kill", ms(50))
	r.Record(0, CatDart, "bucket-1", "dart.get", ms(0), ms(100))
	r.Event(0, CatAdmit, "overload", "admit", ms(1))
	if lanes := TimelineLanes(r); len(lanes) != 2 || lanes[0] != "sim" || lanes[1] != "bucket-0" {
		t.Fatalf("lanes: %v, want [sim bucket-0]", lanes)
	}
	u := Utilization(r)
	if len(u) != 2 || u["sim"] < 0.49 || u["sim"] > 0.51 || u["bucket-0"] < 0.49 || u["bucket-0"] > 0.51 {
		t.Fatalf("utilization over a 20 ms extent: %v", u)
	}
	if out := Gantt(r, 40); !strings.Contains(out, "20ms total") {
		t.Fatalf("extent must span the occupancy spans only:\n%s", out)
	}
}

func TestUtilization(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	// Lane "a" busy 0-50 and 25-75 (merged: 0-75 of 0-100 = 0.75).
	add(r, t0, "a", "x", 0, 50)
	add(r, t0, "a", "y", 25, 75)
	add(r, t0, "b", "z", 0, 100)
	u := Utilization(r)
	if u["b"] < 0.99 {
		t.Fatalf("lane b should be fully busy: %v", u)
	}
	if u["a"] < 0.74 || u["a"] > 0.76 {
		t.Fatalf("lane a overlap merge wrong: %v", u)
	}
	if Utilization(NewRecorder()) != nil {
		t.Fatal("empty utilization must be nil")
	}
}

func TestTimelineConcurrentAdds(t *testing.T) {
	r := NewRecorder()
	t0 := r.Anchor()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				add(r, t0, "lane", "x", i, i+1)
			}
		}()
	}
	wg.Wait()
	if n := len(r.SpansCat(CatSim)); n != 800 {
		t.Fatalf("lost spans: %d", n)
	}
}
