// Package obs is the pipeline's observability plane: a structured span
// recorder and a typed metrics registry, with exporters for the Chrome
// trace-event format (chrome://tracing, Perfetto), a JSONL event log,
// and a Prometheus-style text dump, plus a live HTTP endpoint serving
// all three alongside net/http/pprof.
//
// The plane is the system of record the paper-facing text views render
// from: each fact is recorded once, by the layer that owns it, and the
// Gantt and Utilization views draw the occupancy spans among them
// (simulation steps and in-transit task attempts), while the pipeline
// samples its Table II ledger into a Registry.
//
// Span identity is deterministic per run: IDs are a sequence number
// assigned in recording order, never random or time-derived, so two
// exports of the same recorder are byte-identical.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span categories used across the pipeline. Exporters carry the
// category through (Chrome "cat", JSONL "cat"), so consumers can
// filter one subsystem's events out of a full-run trace.
const (
	// CatSim holds what only the simulation loop knows: one sim.step
	// span per step (attrs: step, tenant) and the recovery.kill event
	// of an injected crash.
	CatSim = "sim"
	// CatDart holds transport-layer spans and events: one span per
	// Get (attrs: bytes, attempts, modeled time) and one event per
	// retry.
	CatDart = "dart"
	// CatTask holds the in-transit task lifecycle: submit and requeue
	// events on the queue lane, and per-attempt pull/run spans plus the
	// terminal done event on the bucket lanes.
	CatTask = "task"
	// CatAdmit holds the overload-control plane: per-step admission
	// decisions, breaker transitions and submit-time sheds.
	CatAdmit = "admit"
)

// Attr is one key/value annotation on a span or event. Attrs with an
// empty key are dropped at recording time, so conditional helpers (see
// Error) can return a zero Attr to mean "nothing".
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Dur builds a duration attribute, rendered in Go duration syntax.
func Dur(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Error builds an "error" attribute from err, or a zero (dropped) Attr
// when err is nil.
func Error(err error) Attr {
	if err == nil {
		return Attr{}
	}
	return Attr{Key: "error", Value: err.Error()}
}

// Span is one recorded interval (or instantaneous event) on a lane.
type Span struct {
	// ID is the span's run-unique sequence number, assigned in
	// recording order starting at 1.
	ID int64
	// Parent is the enclosing span's ID, or 0 for a root span.
	Parent int64
	// Cat is the span's category (one of the Cat* constants).
	Cat string
	// Lane names the resource the span occupied: "sim", "bucket-N",
	// an endpoint name, "queue", or "overload".
	Lane string
	// Name is the span's display name, e.g. "sim.step" or "dart.get".
	Name string
	// Start and End bound the interval; End == Start for events.
	Start, End time.Time
	// Attrs are the span's structured annotations.
	Attrs []Attr
}

// Instant reports whether the span is a zero-length event.
func (s Span) Instant() bool { return !s.End.After(s.Start) }

// Recorder collects spans concurrently. The zero value is not usable;
// construct with NewRecorder or NewRecorderAt.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []Span
}

// NewRecorder returns an empty recorder anchored at the current time.
func NewRecorder() *Recorder { return NewRecorderAt(time.Now()) }

// NewRecorderAt returns an empty recorder anchored at t0. Exported
// timestamps are rendered relative to the anchor, so golden tests pin
// it to a fixed instant.
func NewRecorderAt(t0 time.Time) *Recorder { return &Recorder{t0: t0} }

// Anchor returns the recorder's time origin.
func (r *Recorder) Anchor() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t0
}

// Record appends one completed span under the given parent (0 = root)
// and returns its ID.
func (r *Recorder) Record(parent int64, cat, lane, name string, start, end time.Time, attrs ...Attr) int64 {
	kept := attrs[:0]
	for _, a := range attrs {
		if a.Key != "" {
			kept = append(kept, a)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, Span{
		ID: r.next, Parent: parent, Cat: cat, Lane: lane, Name: name,
		Start: start, End: end, Attrs: append([]Attr(nil), kept...),
	})
	return r.next
}

// Event records an instantaneous event (a zero-length span) and
// returns its ID.
func (r *Recorder) Event(parent int64, cat, lane, name string, at time.Time, attrs ...Attr) int64 {
	return r.Record(parent, cat, lane, name, at, at, attrs...)
}

// Begin opens an in-progress span, assigning its ID immediately so
// children recorded before the span closes can reference it.
func (r *Recorder) Begin(parent int64, cat, lane, name string, attrs ...Attr) *Active {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &Active{
		r: r, id: id, parent: parent, cat: cat, lane: lane, name: name,
		start: time.Now(), attrs: attrs,
	}
}

// Active is a span opened by Begin and not yet recorded.
type Active struct {
	r      *Recorder
	id     int64
	parent int64
	cat    string
	lane   string
	name   string
	start  time.Time
	attrs  []Attr
}

// ID returns the span's pre-assigned ID, usable as a parent for
// children recorded while the span is open.
func (a *Active) ID() int64 { return a.id }

// End records the span, closing it now. Extra attrs are appended to
// those given at Begin.
func (a *Active) End(attrs ...Attr) {
	all := append(append([]Attr(nil), a.attrs...), attrs...)
	kept := all[:0]
	for _, at := range all {
		if at.Key != "" {
			kept = append(kept, at)
		}
	}
	end := time.Now()
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, Span{
		ID: a.id, Parent: a.parent, Cat: a.cat, Lane: a.lane, Name: a.name,
		Start: a.start, End: end, Attrs: append([]Attr(nil), kept...),
	})
	a.r.mu.Unlock()
}

// Len returns the number of recorded (closed) spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of all recorded spans, sorted by start time
// with the recording sequence breaking ties, so the order is
// deterministic for a given run.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SpansCat returns the recorded spans in one category, sorted as in
// Spans.
func (r *Recorder) SpansCat(cat string) []Span {
	all := r.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Cat == cat {
			out = append(out, s)
		}
	}
	return out
}

// Plane bundles the two halves of the observability plane: the span
// recorder and the metrics registry. One Plane instruments one
// pipeline run.
type Plane struct {
	rec *Recorder
	reg *Registry
}

// NewPlane returns a plane with a fresh recorder (anchored now) and an
// empty registry.
func NewPlane() *Plane { return &Plane{rec: NewRecorder(), reg: NewRegistry()} }

// Recorder returns the plane's span recorder.
func (p *Plane) Recorder() *Recorder { return p.rec }

// Registry returns the plane's metrics registry.
func (p *Plane) Registry() *Registry { return p.reg }

// String implements fmt.Stringer with a one-line summary.
func (p *Plane) String() string {
	return fmt.Sprintf("obs.Plane{%d spans, %d metric families}", p.rec.Len(), p.reg.Families())
}
