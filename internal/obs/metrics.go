package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: counters, gauges and
// fixed-bucket histograms, plus function-backed instruments that are
// sampled at export time (so live state — queue depth, credit balance,
// fabric counters — needs no mirroring). Registration is idempotent:
// asking for an existing (name, labels) series returns the same
// instrument. Registering the same series as a different kind panics —
// that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric family: all series sharing a name, help text
// and type.
type family struct {
	name, help, typ string
	series          map[string]*series // keyed by rendered label string
}

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set.
type series struct {
	labels string
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Families returns the number of registered metric families.
func (r *Registry) Families() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.families)
}

// renderLabels renders attrs as a deterministic Prometheus label
// string (`{k="v",...}`), or "" for no labels.
func renderLabels(labels []Attr) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Attr(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register finds or creates a series; mk builds the instrument on
// first registration.
func (r *Registry) register(name, help, typ string, labels []Attr, mk func() *series) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = mk()
		s.labels = key
		f.series[key] = s
	}
	return s
}

// Counter registers (or finds) a monotonically increasing int64
// counter.
func (r *Registry) Counter(name, help string, labels ...Attr) *Counter {
	s := r.register(name, help, "counter", labels, func() *series { return &series{c: &Counter{}} })
	if s.c == nil {
		panic(fmt.Sprintf("obs: metric %q%s is not an owned counter", name, renderLabels(labels)))
	}
	return s.c
}

// CounterFunc registers a counter series whose value is read from fn
// at export time — for monotonic totals a subsystem already tracks.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Attr) {
	r.register(name, help, "counter", labels, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge series whose value is read from fn at
// export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Attr) {
	r.register(name, help, "gauge", labels, func() *series { return &series{fn: fn} })
}

// Histogram registers (or finds) a fixed-bucket histogram. The bucket
// slice holds ascending upper bounds; an implicit +Inf bucket is
// always appended.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Attr) *Histogram {
	s := r.register(name, help, "histogram", labels, func() *series {
		return &series{h: newHistogram(buckets)}
	})
	if s.h == nil {
		panic(fmt.Sprintf("obs: metric %q%s is not a histogram", name, renderLabels(labels)))
	}
	return s.h
}

// Counter is a monotonically increasing int64 counter, safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative for the Prometheus contract,
// unchecked).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram, safe for concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n ascending bucket bounds starting at start,
// each factor times the previous — the standard exponential layout
// for latency and size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default latency histogram layout: 1µs to ~4s
// in powers of 4.
var LatencyBuckets = ExpBuckets(1e-6, 4, 12)

// fmtFloat renders a sample value the way Prometheus text format does.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format, families sorted by name and series by label
// string, so the dump is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		srs := make([]*series, 0, len(keys))
		for _, k := range keys {
			srs = append(srs, f.series[k])
		}
		r.mu.Unlock()
		for _, s := range srs {
			switch {
			case s.c != nil:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.fn != nil:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, s.labels, fmtFloat(s.fn()))
			case s.h != nil:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", fmtFloat(b)), cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, s.labels, fmtFloat(s.h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// mergeLabels inserts one extra label (e.g. le) into an already
// rendered label string.
func mergeLabels(rendered, key, val string) string {
	extra := key + `="` + escapeLabel(val) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}
