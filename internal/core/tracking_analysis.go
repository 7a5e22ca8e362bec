package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"insitu/internal/mergetree"
)

// TrackingHybrid performs concurrent feature tracking — the capability
// the paper's case study motivates: following ignition kernels whose
// lifetime (~10 steps) is far shorter than any feasible I/O cadence.
//
// In-situ, each rank segments its block at the threshold, labels each
// local component by its sweep-highest member (a local maximum, hence
// retained in the reduced subtree), and counts voxel overlaps between
// the previous and current step's local components. In-transit, the
// glued global tree resolves every local representative to its global
// feature. Because successive steps are temporally multiplexed across
// buckets and may complete out of order, each step's result carries
// its own representative→feature resolution; JoinTracking combines two
// consecutive results into exact global overlap matches (equal to
// what serial whole-field tracking would report).
type TrackingHybrid struct {
	// Var is the tracked variable (default "Y_OH", the ignition
	// marker).
	Var string
	// Threshold defines the features.
	Threshold float64
	EveryN    int
}

// Name implements Analysis.
func (tr *TrackingHybrid) Name() string { return "hybrid feature tracking" }

// Every implements Analysis.
func (tr *TrackingHybrid) Every() int { return tr.EveryN }

func (tr *TrackingHybrid) varName() string {
	if tr.Var == "" {
		return "Y_OH"
	}
	return tr.Var
}

// RawMatch is one rank's voxel-overlap count between a previous-step
// local component and a current-step local component, identified by
// their representative (sweep-highest) vertices.
type RawMatch struct {
	PrevRep int64
	CurRep  int64
	Overlap int64
}

const trackingStateKey = "tracking-prev-labels"

// localLabels returns the rank's owned-voxel labels keyed by voxel id,
// each its component's sweep-highest member
// (mergetree.LocalComponents), plus the sorted representatives.
func (tr *TrackingHybrid) localLabels(ctx *Ctx) (map[int64]int64, []int64, error) {
	f := ctx.Sim.GhostedField(tr.varName())
	if f == nil {
		return nil, nil, fmt.Errorf("tracking: unknown variable %q", tr.varName())
	}
	labels, err := mergetree.LocalComponents(f, ctx.Global, ctx.Owned, tr.Threshold)
	if err != nil {
		return nil, nil, err
	}
	reps := make([]int64, 0, len(labels))
	for _, r := range labels {
		reps = append(reps, r)
	}
	slices.Sort(reps)
	return labels, slices.Compact(reps), nil
}

// InSituStage implements HybridAnalysis.
func (tr *TrackingHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	cur, reps, err := tr.localLabels(ctx)
	if err != nil {
		return nil, err
	}
	// Voxel overlaps against the previous invocation's labels.
	var matches []RawMatch
	if prev, ok := ctx.State[trackingStateKey].(map[int64]int64); ok {
		counts := make(map[[2]int64]int64)
		for id, pl := range prev {
			if cl, ok := cur[id]; ok {
				counts[[2]int64{pl, cl}]++
			}
		}
		for k, n := range counts {
			matches = append(matches, RawMatch{PrevRep: k[0], CurRep: k[1], Overlap: n})
		}
		sort.Slice(matches, func(i, j int) bool {
			if matches[i].PrevRep != matches[j].PrevRep {
				return matches[i].PrevRep < matches[j].PrevRep
			}
			return matches[i].CurRep < matches[j].CurRep
		})
	}
	ctx.State[trackingStateKey] = cur

	// The subtree leads so the in-transit stage can resolve
	// representatives against the global tree; the representatives and
	// matches follow it, each list a u64 count and its records.
	f := ctx.Sim.GhostedField(tr.varName())
	p, err := packSubtree(ctx, f, 16+8*len(reps)+24*len(matches))
	if err != nil {
		return nil, err
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(len(reps)))
	for _, r := range reps {
		p = binary.LittleEndian.AppendUint64(p, uint64(r))
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(len(matches)))
	for _, m := range matches {
		p = binary.LittleEndian.AppendUint64(p, uint64(m.PrevRep))
		p = binary.LittleEndian.AppendUint64(p, uint64(m.CurRep))
		p = binary.LittleEndian.AppendUint64(p, uint64(m.Overlap))
	}
	return p, nil
}

// unpackTracking decodes what a tracking payload carries after its
// subtree, appending the representatives to reps and the raw matches
// to raw. Bytes after the matches are ignored.
func unpackTracking(p []byte, reps []int64, raw []RawMatch) ([]int64, []RawMatch, error) {
	n, p, err := trackingCount(p, 8)
	if err != nil {
		return nil, nil, err
	}
	for ; n > 0; n-- {
		reps = append(reps, int64(binary.LittleEndian.Uint64(p)))
		p = p[8:]
	}
	if n, p, err = trackingCount(p, 24); err != nil {
		return nil, nil, err
	}
	for ; n > 0; n-- {
		raw = append(raw, RawMatch{
			PrevRep: int64(binary.LittleEndian.Uint64(p)),
			CurRep:  int64(binary.LittleEndian.Uint64(p[8:])),
			Overlap: int64(binary.LittleEndian.Uint64(p[16:])),
		})
		p = p[24:]
	}
	return reps, raw, nil
}

// trackingCount reads the u64 count of a list of size-byte records and
// returns it with the bytes after it, checking that the records fit in
// those bytes before anything is allocated for them.
func trackingCount(p []byte, size int) (int, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: tracking list count missing (%d bytes)", mergetree.ErrCorruptPayload, len(p))
	}
	n := binary.LittleEndian.Uint64(p)
	if n > uint64(len(p)-8)/uint64(size) {
		return 0, nil, fmt.Errorf("%w: %d tracking records of %d bytes in %d bytes", mergetree.ErrCorruptPayload, n, size, len(p)-8)
	}
	return int(n), p[8:], nil
}

// TrackingStepResult is one step's in-transit output: the global
// feature set, the representative→feature resolution for this step,
// and the raw (unresolved on the previous side) matches.
type TrackingStepResult struct {
	Step       int
	Features   []mergetree.Feature
	Resolution map[int64]int64 // representative vertex -> global feature label
	Raw        []RawMatch
}

// InTransit implements HybridAnalysis.
func (tr *TrackingHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	var reps []int64
	var raw []RawMatch
	tree, _, err := ts.glue(payloads, func(extras []byte) (err error) {
		reps, raw, err = unpackTracking(extras, reps, raw)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tracking: %w", err)
	}
	seg := mergetree.Segment(tree, tr.Threshold)
	res := &TrackingStepResult{
		Step:       step,
		Features:   ts.work.Features(tree, tr.Threshold),
		Resolution: make(map[int64]int64, len(reps)),
		Raw:        raw,
	}
	for _, r := range reps {
		label, ok := seg.Labels[r]
		if !ok {
			return nil, fmt.Errorf("tracking: representative %d missing from global segmentation", r)
		}
		res.Resolution[r] = label
	}
	return res, nil
}

// BuildTrackGraph assembles a whole run's tracking results into the
// feature-lineage graph: births (kernel inception), deaths
// (dissipation), merges, splits and whole tracks with lifetimes — the
// analysis of intermittent phenomena the paper's case study motivates.
// Results must exist for every due step in [1, steps].
func BuildTrackGraph(rep *Report, track *TrackingHybrid, steps int) (*mergetree.TrackGraph, error) {
	g := mergetree.NewTrackGraph()
	every := track.Every()
	if every < 1 {
		every = 1
	}
	var prev *TrackingStepResult
	for s := every; s <= steps; s += every {
		res, ok := rep.Result(track.Name(), s).(*TrackingStepResult)
		if !ok || res == nil {
			return nil, fmt.Errorf("tracking: missing result for step %d", s)
		}
		feats := make([]int64, 0, len(res.Features))
		for _, f := range res.Features {
			feats = append(feats, f.Label)
		}
		if err := g.AddStep(s, feats); err != nil {
			return nil, err
		}
		if prev != nil {
			matches, err := JoinTracking(prev, res)
			if err != nil {
				return nil, err
			}
			if err := g.AddMatches(prev.Step, s, matches); err != nil {
				return nil, err
			}
		}
		prev = res
	}
	return g, nil
}

// JoinTracking combines two consecutive steps' results into global
// overlap matches: each raw match's previous-side representative is
// resolved against the earlier step, its current side against the
// later one, and counts aggregate per global feature pair. The result
// equals the voxel overlaps of the two steps' whole-field
// segmentations exactly; TestTrackingHybridMatchesSerial checks it
// against that oracle.
func JoinTracking(prev, cur *TrackingStepResult) ([]mergetree.Match, error) {
	counts := make(map[[2]int64]int64)
	for _, m := range cur.Raw {
		pl, ok := prev.Resolution[m.PrevRep]
		if !ok {
			return nil, fmt.Errorf("tracking: previous representative %d not resolved by step %d", m.PrevRep, prev.Step)
		}
		cl, ok := cur.Resolution[m.CurRep]
		if !ok {
			return nil, fmt.Errorf("tracking: current representative %d not resolved by step %d", m.CurRep, cur.Step)
		}
		counts[[2]int64{pl, cl}] += m.Overlap
	}
	out := make([]mergetree.Match, 0, len(counts))
	for k, n := range counts {
		out = append(out, mergetree.Match{PrevLabel: k[0], NextLabel: k[1], Overlap: int(n)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		if out[i].PrevLabel != out[j].PrevLabel {
			return out[i].PrevLabel < out[j].PrevLabel
		}
		return out[i].NextLabel < out[j].NextLabel
	})
	return out, nil
}
