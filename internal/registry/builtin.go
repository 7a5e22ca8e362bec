package registry

import (
	"fmt"

	"insitu/internal/core"
)

// Default frame geometry and shaping factor used when a viz config
// omits them. DefaultVizFactor is the paper's 8x down-sampling.
const (
	DefaultVizWidth  = 320
	DefaultVizHeight = 240
	DefaultVizFactor = 8
)

// builtins registers the core analysis catalog. Each entry is the
// config-facing name of one analysis family; placements select the
// concrete variant (the paper's point: the *same* analysis, placed
// differently per run).
func init() {
	Register("stats", Info{
		Doc:        "descriptive statistics over the listed variables (Welford moments, global merge for hybrid)",
		Placements: []Placement{PlaceInSitu, PlaceHybrid},
		Params: map[Placement][]string{
			PlaceInSitu: {"vars"},
			PlaceHybrid: {"vars"},
		},
		Build: func(p Params) (core.Analysis, error) {
			if p.Placement == PlaceInSitu {
				return &core.StatsInSitu{Vars: p.Vars, EveryN: p.Every}, nil
			}
			return &core.StatsHybrid{Vars: p.Vars, EveryN: p.Every}, nil
		},
	})

	Register("assess", Info{
		Doc:        "in-situ assess & test: flag outliers beyond sigma standard deviations",
		Placements: []Placement{PlaceInSitu},
		Params: map[Placement][]string{
			PlaceInSitu: {"var", "sigma"},
		},
		Check: func(p Params) error {
			if p.Sigma < 0 {
				return fmt.Errorf("%w: assess: negative sigma %v", ErrBadParam, p.Sigma)
			}
			return nil
		},
		Build: func(p Params) (core.Analysis, error) {
			return &core.AssessTestInSitu{Var: p.Var, Sigma: p.Sigma, EveryN: p.Every}, nil
		},
	})

	Register("viz", Info{
		Doc:        "volume rendering: full-resolution in-situ, or down-sampled hybrid with in-transit ray-casting",
		Placements: []Placement{PlaceInSitu, PlaceHybrid},
		Params: map[Placement][]string{
			PlaceInSitu: {"var", "tag", "width", "height", "cameras"},
			PlaceHybrid: {"var", "tag", "width", "height", "factor", "cameras"},
		},
		Check: checkViz,
		Build: buildViz,
	})

	Register("topology", Info{
		Doc:        "merge-tree topology: reduced subtrees in situ, memory-bounded streaming glue in transit",
		Placements: []Placement{PlaceHybrid},
		Params: map[Placement][]string{
			PlaceHybrid: {"var", "simplify_eps", "feature_threshold"},
		},
		Check: func(p Params) error {
			if p.SimplifyEps < 0 {
				return fmt.Errorf("%w: topology: negative simplify_eps %v", ErrBadParam, p.SimplifyEps)
			}
			if p.FeatureThreshold < 0 {
				return fmt.Errorf("%w: topology: negative feature_threshold %v", ErrBadParam, p.FeatureThreshold)
			}
			return nil
		},
		Build: func(p Params) (core.Analysis, error) {
			t := core.NewTopologyHybrid()
			if p.Var != "" {
				t.Var = p.Var
			}
			t.SimplifyEps = p.SimplifyEps
			t.FeatureThreshold = p.FeatureThreshold
			t.EveryN = p.Every
			return t, nil
		},
	})

	Register("featurestats", Info{
		Doc:        "feature-based statistics: summarize var_y per superlevel-set feature of var",
		Placements: []Placement{PlaceHybrid},
		Params: map[Placement][]string{
			PlaceHybrid: {"var", "var_y", "threshold"},
		},
		Build: func(p Params) (core.Analysis, error) {
			return &core.FeatureStatsHybrid{
				SegVar: p.Var, CondVar: p.VarY,
				Threshold: p.Threshold, EveryN: p.Every,
			}, nil
		},
	})

	Register("autocorr", Info{
		Doc:        "temporal auto-correlation of var at the configured lags",
		Placements: []Placement{PlaceHybrid},
		Params: map[Placement][]string{
			PlaceHybrid: {"var", "lags"},
		},
		Check: func(p Params) error {
			for _, lag := range p.Lags {
				if lag <= 0 {
					return fmt.Errorf("%w: autocorr: non-positive lag %d", ErrBadParam, lag)
				}
			}
			return nil
		},
		Build: func(p Params) (core.Analysis, error) {
			return &core.AutoCorrHybrid{Var: p.Var, Lags: p.Lags, EveryN: p.Every}, nil
		},
	})

	Register("contingency", Info{
		Doc:        "joint contingency table of (var, var_y) over x_bins x y_bins cells",
		Placements: []Placement{PlaceHybrid},
		Params: map[Placement][]string{
			PlaceHybrid: {"var", "var_y", "x_bins", "y_bins"},
		},
		Check: func(p Params) error {
			if p.XBins < 0 || p.YBins < 0 {
				return fmt.Errorf("%w: contingency: negative bins %dx%d", ErrBadParam, p.XBins, p.YBins)
			}
			return nil
		},
		Build: func(p Params) (core.Analysis, error) {
			return &core.ContingencyHybrid{
				VarX: p.Var, VarY: p.VarY,
				XBins: p.XBins, YBins: p.YBins, EveryN: p.Every,
			}, nil
		},
	})

	Register("tracking", Info{
		Doc:        "feature tracking: follow superlevel-set features of var across steps",
		Placements: []Placement{PlaceHybrid},
		Params: map[Placement][]string{
			PlaceHybrid: {"var", "threshold"},
		},
		Build: func(p Params) (core.Analysis, error) {
			return &core.TrackingHybrid{Var: p.Var, Threshold: p.Threshold, EveryN: p.Every}, nil
		},
	})
}

// checkViz vets the shared viz value ranges for both placements.
func checkViz(p Params) error {
	if p.Width < 0 || p.Height < 0 {
		return fmt.Errorf("%w: viz: negative frame size %dx%d", ErrBadParam, p.Width, p.Height)
	}
	if p.Factor < 0 {
		return fmt.Errorf("%w: viz: negative shaping factor %d", ErrBadParam, p.Factor)
	}
	if p.Cameras < 0 {
		return fmt.Errorf("%w: viz: negative camera count %d", ErrBadParam, p.Cameras)
	}
	return nil
}

// buildViz constructs the in-situ or hybrid renderer, applying the
// default geometry and shaping factor where the config left zeros.
func buildViz(p Params) (core.Analysis, error) {
	w, h := p.Width, p.Height
	if w == 0 {
		w = DefaultVizWidth
	}
	if h == 0 {
		h = DefaultVizHeight
	}
	if p.Placement == PlaceInSitu {
		v := core.NewVizInSitu(w, h)
		if p.Var != "" {
			v.Var = p.Var
		}
		v.Tag = p.Tag
		v.Cameras = p.Cameras
		v.EveryN = p.Every
		return v, nil
	}
	factor := p.Factor
	if factor == 0 {
		factor = DefaultVizFactor
	}
	v := core.NewVizHybrid(w, h, factor)
	if p.Var != "" {
		v.Var = p.Var
	}
	v.Tag = p.Tag
	v.Cameras = p.Cameras
	v.EveryN = p.Every
	return v, nil
}
