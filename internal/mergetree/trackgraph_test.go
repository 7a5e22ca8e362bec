package mergetree

import (
	"slices"
	"testing"

	"insitu/internal/grid"
)

// buildGraph assembles a graph from a compact description:
// features[i] lists step i's features, matches[i] links step i to i+1.
func buildGraph(t *testing.T, features [][]int64, matches [][]Match) *TrackGraph {
	t.Helper()
	g := NewTrackGraph()
	for i, fs := range features {
		if err := g.AddStep(i+1, fs); err != nil {
			t.Fatal(err)
		}
	}
	for i, ms := range matches {
		if err := g.AddMatches(i+1, i+2, ms); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestTrackGraphBirthDeathContinue(t *testing.T) {
	// Feature 10 lives steps 1-3; feature 20 is born at step 2 and
	// dies at step 2 (one-step kernel).
	g := buildGraph(t,
		[][]int64{{10}, {10, 20}, {10}},
		[][]Match{
			{{PrevLabel: 10, NextLabel: 10, Overlap: 5}},
			{{PrevLabel: 10, NextLabel: 10, Overlap: 5}},
		})
	evs := g.Events(true) // trim run-boundary births/deaths
	n20 := TrackNode{Step: 2, Feature: 20}
	if len(evs[n20]) != 2 || evs[n20][0] != EventBirth || evs[n20][1] != EventDeath {
		t.Fatalf("one-step kernel should be birth+death: %v", evs[n20])
	}
	mid := TrackNode{Step: 2, Feature: 10}
	if len(evs[mid]) != 1 || evs[mid][0] != EventContinue {
		t.Fatalf("persistent feature should continue: %v", evs[mid])
	}
	// Without trimming, step-1 and step-3 endpoints also count.
	evsAll := g.Events(false)
	if len(evsAll[TrackNode{Step: 1, Feature: 10}]) == 0 {
		t.Fatal("untrimmed events missing run-boundary birth")
	}
}

func TestTrackGraphMergeSplit(t *testing.T) {
	// Two features merge at step 2, then split again at step 3.
	g := buildGraph(t,
		[][]int64{{1, 2}, {5}, {7, 8}},
		[][]Match{
			{{PrevLabel: 1, NextLabel: 5, Overlap: 3}, {PrevLabel: 2, NextLabel: 5, Overlap: 2}},
			{{PrevLabel: 5, NextLabel: 7, Overlap: 3}, {PrevLabel: 5, NextLabel: 8, Overlap: 2}},
		})
	evs := g.Events(true)
	n5 := TrackNode{Step: 2, Feature: 5}
	hasMerge, hasSplit := false, false
	for _, e := range evs[n5] {
		if e == EventMerge {
			hasMerge = true
		}
		if e == EventSplit {
			hasSplit = true
		}
	}
	if !hasMerge || !hasSplit {
		t.Fatalf("node 5 should merge and split: %v", evs[n5])
	}
	s := g.Summarize(true)
	if s.Merges != 1 || s.Splits != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
}

func TestTrackGraphTracks(t *testing.T) {
	// A long track (1->1->1) and a short one born at step 2.
	g := buildGraph(t,
		[][]int64{{1}, {1, 9}, {1, 9}},
		[][]Match{
			{{PrevLabel: 1, NextLabel: 1, Overlap: 4}},
			{{PrevLabel: 1, NextLabel: 1, Overlap: 4}, {PrevLabel: 9, NextLabel: 9, Overlap: 2}},
		})
	tracks := g.Tracks()
	if len(tracks) != 2 {
		t.Fatalf("want 2 tracks, got %d", len(tracks))
	}
	if tracks[0].Lifetime() != 3 || tracks[1].Lifetime() != 2 {
		t.Fatalf("lifetimes wrong: %d, %d", tracks[0].Lifetime(), tracks[1].Lifetime())
	}
	s := g.Summarize(true)
	if s.LongestTrack != 3 || s.Tracks != 2 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.Format() == "" {
		t.Fatal("summary format empty")
	}
}

// TestTrackFollowsGreatestOverlap: at a split the track follows the
// successor it overlaps most, here the one with the larger label, and
// a tie goes to the smaller label.
func TestTrackFollowsGreatestOverlap(t *testing.T) {
	g := buildGraph(t,
		[][]int64{{1}, {4, 6}, {4, 6}},
		[][]Match{
			{{PrevLabel: 1, NextLabel: 6, Overlap: 9}, {PrevLabel: 1, NextLabel: 4, Overlap: 2}},
			{{PrevLabel: 6, NextLabel: 6, Overlap: 8}},
		})
	tracks := g.Tracks()
	want := []TrackNode{{1, 1}, {2, 6}, {3, 6}}
	if len(tracks) == 0 || !slices.Equal(tracks[0].Nodes, want) {
		t.Fatalf("tracks %v, want the longest to follow the larger overlap: %v", tracks, want)
	}
	tie := buildGraph(t,
		[][]int64{{1}, {4, 6}},
		[][]Match{{{PrevLabel: 1, NextLabel: 6, Overlap: 3}, {PrevLabel: 1, NextLabel: 4, Overlap: 3}}})
	if got := tie.Tracks()[0].Nodes; !slices.Equal(got, []TrackNode{{1, 1}, {2, 4}}) {
		t.Fatalf("tied split followed %v, want the smaller label", got)
	}
}

func TestTrackGraphValidation(t *testing.T) {
	g := NewTrackGraph()
	if err := g.AddStep(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddStep(1, nil); err == nil {
		t.Fatal("out-of-order step must error")
	}
	if err := g.AddMatches(1, 2, nil); err == nil {
		t.Fatal("unknown step must error")
	}
	if len(g.steps) != 1 {
		t.Fatal("steps accessor wrong")
	}
	if s := NewTrackGraph().Summarize(true); s.Tracks != 0 {
		t.Fatal("empty graph summary must be zero")
	}
}

// TestTrackGraphFromSegmentations runs the whole lineage flow on
// synthetic moving/appearing blobs and checks the expected events.
func TestTrackGraphFromSegmentations(t *testing.T) {
	b := grid.NewBox(40, 12, 1)
	// Blob A moves right for 6 steps; blob B exists only steps 3-4.
	segAt := func(step int) *Segmentation {
		f := grid.NewField("f", b)
		add := func(cx, cy float64) {
			for idx := range f.Data {
				i, j, _ := b.Point(idx)
				dx, dy := float64(i)-cx, float64(j)-cy
				v := 0.0
				if dx*dx+dy*dy < 9 {
					v = 1
				}
				if v > f.Data[idx] {
					f.Data[idx] = v
				}
			}
		}
		add(5+float64(step), 6)
		if step == 3 || step == 4 {
			add(30, 6)
		}
		return segmentField(f, b, 0.5)
	}
	var segs []*Segmentation
	for step := 1; step <= 6; step++ {
		segs = append(segs, segAt(step))
	}
	g := lineage(t, segs)
	s := g.Summarize(true)
	if s.Births != 1 || s.Deaths != 1 {
		t.Fatalf("expected exactly the transient blob's birth and death: %+v", s)
	}
	if s.LongestTrack != 6 {
		t.Fatalf("moving blob should be tracked across all 6 steps: %+v", s)
	}
}
