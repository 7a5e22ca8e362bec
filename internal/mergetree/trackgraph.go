package mergetree

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's case study calls for "tracking the inception, advection,
// and dissipation of the ignition kernels". A TrackGraph assembles the
// per-step overlap matches into that lineage: nodes are (step,
// feature) pairs, edges are overlap matches, and the graph classifies
// each feature's fate — birth, death, continuation, merge, split —
// and extracts whole tracks with their lifetimes.

// Match records the voxel overlap between a feature at one timestep
// and a feature at the next — the connectivity indicator of Fig. 1
// that is lost when the output cadence exceeds the feature lifetime.
type Match struct {
	PrevLabel int64
	NextLabel int64
	Overlap   int
}

// TrackNode identifies one feature at one step.
type TrackNode struct {
	Step    int
	Feature int64
}

// TrackEvent classifies what happened to a feature between steps.
type TrackEvent int

const (
	// EventBirth marks a feature with no predecessor (an inception,
	// e.g. a new ignition kernel).
	EventBirth TrackEvent = iota
	// EventDeath marks a feature with no successor (dissipation).
	EventDeath
	// EventContinue marks 1-to-1 overlap with the next step.
	EventContinue
	// EventMerge marks a feature formed from several predecessors.
	EventMerge
	// EventSplit marks a feature with several successors.
	EventSplit
)

// String implements fmt.Stringer.
func (e TrackEvent) String() string {
	switch e {
	case EventBirth:
		return "birth"
	case EventDeath:
		return "death"
	case EventContinue:
		return "continue"
	case EventMerge:
		return "merge"
	case EventSplit:
		return "split"
	}
	return fmt.Sprintf("TrackEvent(%d)", int(e))
}

// TrackGraph is the lineage over a run.
type TrackGraph struct {
	steps []int // analysis steps in order
	// features per step.
	features map[int][]int64
	// forward[node] lists successor features with their overlaps,
	// backward predecessors.
	forward  map[TrackNode][]trackLink
	backward map[TrackNode][]TrackNode
}

// trackLink is one forward edge: a successor and the voxel overlap
// that links to it.
type trackLink struct {
	to      TrackNode
	overlap int
}

// NewTrackGraph creates an empty graph.
func NewTrackGraph() *TrackGraph {
	return &TrackGraph{
		features: make(map[int][]int64),
		forward:  make(map[TrackNode][]trackLink),
		backward: make(map[TrackNode][]TrackNode),
	}
}

// AddStep records one analysis step's features, in step order.
func (g *TrackGraph) AddStep(step int, features []int64) error {
	if n := len(g.steps); n > 0 && g.steps[n-1] >= step {
		return fmt.Errorf("mergetree: steps must be added in increasing order (%d after %d)", step, g.steps[n-1])
	}
	g.steps = append(g.steps, step)
	fs := append([]int64{}, features...)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	g.features[step] = fs
	return nil
}

// AddMatches records the overlap matches between the two most recently
// added steps (prev, cur).
func (g *TrackGraph) AddMatches(prev, cur int, matches []Match) error {
	if _, ok := g.features[prev]; !ok {
		return fmt.Errorf("mergetree: unknown step %d", prev)
	}
	if _, ok := g.features[cur]; !ok {
		return fmt.Errorf("mergetree: unknown step %d", cur)
	}
	for _, m := range matches {
		a := TrackNode{Step: prev, Feature: m.PrevLabel}
		b := TrackNode{Step: cur, Feature: m.NextLabel}
		g.forward[a] = append(g.forward[a], trackLink{to: b, overlap: m.Overlap})
		g.backward[b] = append(g.backward[b], a)
	}
	return nil
}

// Events classifies every node. A node can carry several events (for
// example a merge that also splits); births/deaths at the run's first
// and last steps are suppressed for interior-only analyses when
// trimEnds is set.
func (g *TrackGraph) Events(trimEnds bool) map[TrackNode][]TrackEvent {
	out := make(map[TrackNode][]TrackEvent)
	if len(g.steps) == 0 {
		return out
	}
	first, last := g.steps[0], g.steps[len(g.steps)-1]
	for _, step := range g.steps {
		for _, f := range g.features[step] {
			n := TrackNode{Step: step, Feature: f}
			var evs []TrackEvent
			preds := len(g.backward[n])
			succs := len(g.forward[n])
			if preds == 0 && !(trimEnds && step == first) {
				evs = append(evs, EventBirth)
			}
			if preds > 1 {
				evs = append(evs, EventMerge)
			}
			if succs == 0 && !(trimEnds && step == last) {
				evs = append(evs, EventDeath)
			}
			if succs > 1 {
				evs = append(evs, EventSplit)
			}
			if preds == 1 && succs == 1 {
				evs = append(evs, EventContinue)
			}
			out[n] = evs
		}
	}
	return out
}

// FeatureTrack is one feature's path through time, following the
// greatest overlap at each hop.
type FeatureTrack struct {
	Nodes []TrackNode
}

// Lifetime returns the number of steps the track spans.
func (t FeatureTrack) Lifetime() int { return len(t.Nodes) }

// Tracks extracts maximal tracks: starting from every birth (or
// first-step feature), follow forward links; at a split follow the
// unclaimed successor of greatest overlap, the smaller label on a tie;
// a node already claimed by an earlier track starts no new one but may
// terminate others. Tracks are returned longest first.
func (g *TrackGraph) Tracks() []FeatureTrack {
	claimed := make(map[TrackNode]bool)
	var tracks []FeatureTrack
	for _, step := range g.steps {
		for _, f := range g.features[step] {
			n := TrackNode{Step: step, Feature: f}
			if claimed[n] || len(g.backward[n]) > 0 {
				continue // not a track head
			}
			var tr FeatureTrack
			cur := n
			for {
				tr.Nodes = append(tr.Nodes, cur)
				claimed[cur] = true
				next, ok := g.firstSuccessor(cur, claimed)
				if !ok {
					break
				}
				cur = next
			}
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if len(tracks[i].Nodes) != len(tracks[j].Nodes) {
			return len(tracks[i].Nodes) > len(tracks[j].Nodes)
		}
		return tracks[i].Nodes[0].Step < tracks[j].Nodes[0].Step
	})
	return tracks
}

// firstSuccessor returns n's unclaimed successor of greatest overlap,
// the smaller label on a tie.
func (g *TrackGraph) firstSuccessor(n TrackNode, claimed map[TrackNode]bool) (TrackNode, bool) {
	best := trackLink{overlap: -1}
	for _, l := range g.forward[n] {
		if !claimed[l.to] && (l.overlap > best.overlap || l.overlap == best.overlap && l.to.Feature < best.to.Feature) {
			best = l
		}
	}
	return best.to, best.overlap >= 0
}

// Summary counts events over the run.
type TrackSummary struct {
	Births, Deaths, Merges, Splits int
	Tracks                         int
	LongestTrack                   int
	MeanLifetime                   float64
}

// Summarize aggregates the lineage into the quantities a kernel-
// tracking study reports.
func (g *TrackGraph) Summarize(trimEnds bool) TrackSummary {
	var s TrackSummary
	for _, evs := range g.Events(trimEnds) {
		for _, e := range evs {
			switch e {
			case EventBirth:
				s.Births++
			case EventDeath:
				s.Deaths++
			case EventMerge:
				s.Merges++
			case EventSplit:
				s.Splits++
			}
		}
	}
	tracks := g.Tracks()
	s.Tracks = len(tracks)
	total := 0
	for _, t := range tracks {
		total += t.Lifetime()
		if t.Lifetime() > s.LongestTrack {
			s.LongestTrack = t.Lifetime()
		}
	}
	if len(tracks) > 0 {
		s.MeanLifetime = float64(total) / float64(len(tracks))
	}
	return s
}

// Format renders the summary.
func (s TrackSummary) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tracks=%d longest=%d mean-lifetime=%.1f births=%d deaths=%d merges=%d splits=%d",
		s.Tracks, s.LongestTrack, s.MeanLifetime, s.Births, s.Deaths, s.Merges, s.Splits)
	return sb.String()
}
