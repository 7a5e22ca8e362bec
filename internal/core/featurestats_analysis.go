package core

import (
	"encoding/binary"
	"fmt"

	"insitu/internal/mergetree"
)

// FeatureStatsHybrid combines the merge-tree computation with the
// statistics engine into feature-based statistics — the analysis the
// paper's conclusion proposes building on this framework: descriptive
// statistics of CondVar conditioned on the superlevel-set features of
// SegVar (for example, OH statistics per ignition kernel).
//
// The in-situ stage ships the rank's reduced subtree together with its
// per-local-component partial moments; the in-transit stage glues the
// global tree, resolves each local component to its global feature,
// and combines the moments.
type FeatureStatsHybrid struct {
	// SegVar defines the features (default "T").
	SegVar string
	// CondVar is the variable summarized per feature (default "Y_OH").
	CondVar string
	// Threshold is the superlevel-set threshold defining features.
	Threshold float64
	EveryN    int
}

// Name implements Analysis.
func (f *FeatureStatsHybrid) Name() string { return "hybrid feature-based statistics" }

// Every implements Analysis.
func (f *FeatureStatsHybrid) Every() int { return f.EveryN }

func (f *FeatureStatsHybrid) segVar() string {
	if f.SegVar == "" {
		return "T"
	}
	return f.SegVar
}

func (f *FeatureStatsHybrid) condVar() string {
	if f.CondVar == "" {
		return "Y_OH"
	}
	return f.CondVar
}

// InSituStage implements HybridAnalysis.
func (f *FeatureStatsHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	segF := ctx.Sim.GhostedField(f.segVar())
	condF := ctx.Sim.GhostedField(f.condVar())
	if segF == nil || condF == nil {
		return nil, fmt.Errorf("featurestats: unknown variable %q or %q", f.segVar(), f.condVar())
	}
	st, err := subtreeScratch(ctx).Subtree(segF, ctx.Global, ctx.Owned, ctx.Comm.ID(), mergetree.KeepOverlapMaxima)
	if err != nil {
		return nil, err
	}
	partials, err := mergetree.LocalFeatureStats(segF, condF, ctx.Global, ctx.Owned, f.Threshold)
	if err != nil {
		return nil, err
	}
	par := mergetree.MarshalFeaturePartials(partials)
	out := make([]byte, 4, 4+st.MarshalSize()+len(par))
	binary.LittleEndian.PutUint32(out, uint32(st.MarshalSize()))
	out = st.AppendMarshal(out)
	out = append(out, par...)
	return out, nil
}

// InTransit implements HybridAnalysis.
func (f *FeatureStatsHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	subtrees := ts.subtrees(len(payloads))
	partials := make([][]mergetree.FeaturePartial, 0, len(payloads))
	for i, p := range payloads {
		if len(p) < 4 {
			return nil, fmt.Errorf("featurestats: payload %d too short", i)
		}
		subLen := int(binary.LittleEndian.Uint32(p[:4]))
		if len(p) < 4+subLen {
			return nil, fmt.Errorf("featurestats: payload %d truncated", i)
		}
		if err := subtrees[i].Unmarshal(p[4 : 4+subLen]); err != nil {
			return nil, fmt.Errorf("featurestats: payload %d subtree: %w", i, err)
		}
		ps, err := mergetree.UnmarshalFeaturePartials(p[4+subLen:])
		if err != nil {
			return nil, fmt.Errorf("featurestats: payload %d partials: %w", i, err)
		}
		partials = append(partials, ps)
	}
	tree, _, err := ts.build.Glue(subtrees, mergetree.GlueOptions{Evict: true})
	if err != nil {
		return nil, err
	}
	return mergetree.GlobalFeatureStats(tree, f.Threshold, partials)
}
