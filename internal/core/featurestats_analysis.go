package core

import (
	"fmt"

	"insitu/internal/mergetree"
)

// FeatureStatsHybrid combines the merge-tree computation with the
// statistics engine into feature-based statistics — the analysis the
// paper's conclusion proposes building on this framework: descriptive
// statistics of CondVar conditioned on the superlevel-set features of
// SegVar (for example, OH statistics per ignition kernel).
//
// The in-situ stage ships the rank's reduced subtree followed by its
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
	partials, err := mergetree.LocalFeatureStats(segF, condF, ctx.Global, ctx.Owned, f.Threshold)
	if err != nil {
		return nil, err
	}
	// The partials follow the subtree. Their size, a u32 count and 64
	// bytes each, only sizes the pooled buffer: the append grows it if
	// the encoding changes.
	p, err := packSubtree(ctx, segF, 4+64*len(partials))
	if err != nil {
		return nil, err
	}
	return mergetree.AppendFeaturePartials(p, partials), nil
}

// InTransit implements HybridAnalysis.
func (f *FeatureStatsHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	ts := getTransitScratch()
	defer putTransitScratch(ts)
	partials := make([][]mergetree.FeaturePartial, 0, len(payloads))
	tree, _, err := ts.glue(payloads, func(extras []byte) error {
		ps, err := mergetree.UnmarshalFeaturePartials(extras)
		partials = append(partials, ps)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("featurestats: %w", err)
	}
	return mergetree.GlobalFeatureStats(tree, f.Threshold, partials)
}
