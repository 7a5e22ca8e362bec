package core

import (
	"testing"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
)

// TestTrackingHybridMatchesSerial drives the concurrent feature
// tracking through the full pipeline and verifies the joined matches
// equal serial whole-field tracking, compared in the label-independent
// space of each feature's maximum vertex.
func TestTrackingHybridMatchesSerial(t *testing.T) {
	const steps = 5
	const threshold = 0.02
	simCfg := testSimConfig(2, 2, 1)
	simCfg.KernelRate = 1.0

	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	track := &TrackingHybrid{Threshold: threshold}
	p.Register(track)
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: segment the global OH field's merge tree at
	// every step.
	var serialSegs []*mergetree.Segmentation
	for s := 1; s <= steps; s++ {
		gf := globalFields(t, simCfg, s, []string{"Y_OH"})
		serialSegs = append(serialSegs, mergetree.Segment(mergetree.FromField(gf["Y_OH"], simCfg.Global), threshold))
	}

	// maxOf maps a segmentation's labels to each component's highest
	// vertex, giving construction-independent feature identities.
	maxOf := func(seg *mergetree.Segmentation, field map[int64]float64) map[int64]int64 {
		out := make(map[int64]int64)
		best := make(map[int64]float64)
		for id, label := range seg.Labels {
			v := field[id]
			if cur, ok := out[label]; !ok || mergetree.Above(v, id, best[label], cur) {
				out[label] = id
				best[label] = v
			}
		}
		return out
	}

	for s := 2; s <= steps; s++ {
		prev := rep.Result(track.Name(), s-1).(*TrackingStepResult)
		cur := rep.Result(track.Name(), s).(*TrackingStepResult)
		joined, err := JoinTracking(prev, cur)
		if err != nil {
			t.Fatal(err)
		}

		// Serial matches, canonicalized to (prevMaxID, curMaxID).
		gfPrev := globalFields(t, simCfg, s-1, []string{"Y_OH"})["Y_OH"]
		gfCur := globalFields(t, simCfg, s, []string{"Y_OH"})["Y_OH"]
		valsPrev := make(map[int64]float64)
		for id := range serialSegs[s-2].Labels {
			i, j, k := grid.GlobalPoint(simCfg.Global, id)
			valsPrev[id] = gfPrev.At(i, j, k)
		}
		valsCur := make(map[int64]float64)
		for id := range serialSegs[s-1].Labels {
			i, j, k := grid.GlobalPoint(simCfg.Global, id)
			valsCur[id] = gfCur.At(i, j, k)
		}
		prevMax := maxOf(serialSegs[s-2], valsPrev)
		curMax := maxOf(serialSegs[s-1], valsCur)
		// Serial overlaps: the voxels labeled at both steps.
		want := make(map[[2]int64]int)
		for id, pl := range serialSegs[s-2].Labels {
			if cl, ok := serialSegs[s-1].Labels[id]; ok {
				want[[2]int64{prevMax[pl], curMax[cl]}]++
			}
		}

		// Pipeline matches, canonicalized via each step's feature list.
		featMax := func(r *TrackingStepResult) map[int64]int64 {
			out := make(map[int64]int64, len(r.Features))
			for _, f := range r.Features {
				out[f.Label] = f.MaxID
			}
			return out
		}
		pm, cm := featMax(prev), featMax(cur)
		got := make(map[[2]int64]int)
		for _, m := range joined {
			got[[2]int64{pm[m.PrevLabel], cm[m.NextLabel]}] = m.Overlap
		}

		if len(got) != len(want) {
			t.Fatalf("step %d: %d pipeline matches vs %d serial", s, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("step %d: match %v overlap %d vs serial %d", s, k, got[k], n)
			}
		}
		if s == steps && len(want) == 0 {
			t.Fatal("test produced no matches; threshold too high to be meaningful")
		}
	}
}

// TestBuildTrackGraph assembles the lineage over a pipeline run.
func TestBuildTrackGraph(t *testing.T) {
	const steps = 6
	simCfg := testSimConfig(2, 2, 1)
	simCfg.KernelRate = 1.2
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	track := &TrackingHybrid{Threshold: 0.02}
	p.Register(track)
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildTrackGraph(rep, track, steps)
	if err != nil {
		t.Fatal(err)
	}
	// The graph holds every feature of every step as a node.
	nodes := g.Events(false)
	for step := 1; step <= steps; step++ {
		for _, f := range rep.Result(track.Name(), step).(*TrackingStepResult).Features {
			if _, ok := nodes[mergetree.TrackNode{Step: step, Feature: f.Label}]; !ok {
				t.Fatalf("graph lacks step %d feature %d", step, f.Label)
			}
		}
	}
	if len(nodes) == 0 {
		t.Fatal("graph holds no feature")
	}
	s := g.Summarize(true)
	if s.Tracks == 0 || s.LongestTrack < 2 {
		t.Fatalf("expected at least one multi-step track: %+v", s)
	}
	// Missing-step error path.
	if _, err := BuildTrackGraph(rep, track, steps+5); err == nil {
		t.Fatal("missing step must error")
	}
}
