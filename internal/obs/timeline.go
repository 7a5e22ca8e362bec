package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The timeline views render a recorder's occupancy spans — when each
// simulation step ran (CatSim's sim.step) and when each in-transit task
// attempt occupied which staging bucket (CatTask's task.attempt) — as a
// text Gantt chart plus per-lane utilization. They make the paper's
// temporal multiplexing directly visible: successive timesteps' slow
// in-transit tasks overlap on different buckets while the simulation
// marches ahead. Instant events, child spans and the other categories
// stay in the trace exports and are never drawn.

// occupancy returns rec's non-instant root spans of CatSim and CatTask,
// sorted as in Recorder.Spans.
func occupancy(rec *Recorder) []Span {
	all := rec.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Parent == 0 && !s.Instant() && (s.Cat == CatSim || s.Cat == CatTask) {
			out = append(out, s)
		}
	}
	return out
}

// TimelineLanes returns the distinct lanes of rec's occupancy spans,
// "sim" first, then sorted.
func TimelineLanes(rec *Recorder) []string {
	return timelineLanes(occupancy(rec))
}

func timelineLanes(spans []Span) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			out = append(out, s.Lane)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i] == "sim" {
			return true
		}
		if out[j] == "sim" {
			return false
		}
		return out[i] < out[j]
	})
	return out
}

// timelineExtent returns the earliest start and latest end over spans,
// which must be non-empty.
func timelineExtent(spans []Span) (start, end time.Time) {
	start, end = spans[0].Start, spans[0].End
	for _, s := range spans {
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End.After(end) {
			end = s.End
		}
	}
	return start, end
}

// Gantt renders rec's occupancy spans as text, `width` characters
// across. Each lane is one row; spans draw as runs of '#' with the
// span's first name character ('s' for a step, 't' for a task attempt)
// where it starts.
func Gantt(rec *Recorder, width int) string {
	spans := occupancy(rec)
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	if width < 20 {
		width = 20
	}
	start, end := timelineExtent(spans)
	total := end.Sub(start)
	if total <= 0 {
		total = time.Nanosecond
	}
	cell := func(t time.Time) int {
		c := int(float64(width) * float64(t.Sub(start)) / float64(total))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %v total, one column ~ %v\n", total.Round(time.Microsecond),
		(total / time.Duration(width)).Round(time.Microsecond))
	for _, lane := range timelineLanes(spans) {
		row := []byte(strings.Repeat(".", width))
		for _, s := range spans {
			if s.Lane != lane {
				continue
			}
			a, b := cell(s.Start), cell(s.End)
			for c := a; c <= b; c++ {
				row[c] = '#'
			}
			if len(s.Name) > 0 {
				row[a] = s.Name[0]
			}
		}
		fmt.Fprintf(&sb, "%-12s |%s|\n", lane, row)
	}
	return sb.String()
}

// Utilization returns, per timeline lane, the fraction of the
// timeline's extent covered by work (overlapping spans merged).
func Utilization(rec *Recorder) map[string]float64 {
	spans := occupancy(rec)
	if len(spans) == 0 {
		return nil
	}
	start, end := timelineExtent(spans)
	total := end.Sub(start)
	if total <= 0 {
		return nil
	}
	// spans arrive sorted by start, so each lane's intervals merge in
	// one pass: cur is the lane's open merged interval.
	type iv struct{ a, b time.Time }
	cur := make(map[string]iv)
	busy := make(map[string]time.Duration)
	for _, s := range spans {
		c, open := cur[s.Lane]
		switch {
		case !open:
			cur[s.Lane] = iv{s.Start, s.End}
		case s.Start.After(c.b):
			busy[s.Lane] += c.b.Sub(c.a)
			cur[s.Lane] = iv{s.Start, s.End}
		case s.End.After(c.b):
			cur[s.Lane] = iv{c.a, s.End}
		}
	}
	out := make(map[string]float64, len(cur))
	for lane, c := range cur {
		out[lane] = float64(busy[lane]+c.b.Sub(c.a)) / float64(total)
	}
	return out
}
