package registry_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// mustPanic asserts fn panics; broken registrations are programming
// errors and Register is documented to refuse them loudly.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

func TestRegisterRejectsBrokenRegistrations(t *testing.T) {
	okInfo := registry.Info{
		Placements: []registry.Placement{registry.PlaceInSitu},
		Build: func(registry.Params) (core.Analysis, error) {
			return &core.StatsInSitu{}, nil
		},
	}
	mustPanic(t, "empty name", func() { registry.Register("", okInfo) })
	mustPanic(t, "duplicate name", func() { registry.Register("stats", okInfo) })
	mustPanic(t, "nil factory", func() {
		registry.Register("t-nilbuild", registry.Info{Placements: okInfo.Placements})
	})
	mustPanic(t, "no placements", func() {
		registry.Register("t-noplace", registry.Info{Build: okInfo.Build})
	})
	mustPanic(t, "invalid placement", func() {
		registry.Register("t-badplace", registry.Info{
			Placements: []registry.Placement{"sideways"},
			Build:      okInfo.Build,
		})
	})
}

// TestOpenRegistration exercises the extension point the tenants
// scenario uses for its poison route: any package may register an
// analysis and configs resolve it like a built-in.
func TestOpenRegistration(t *testing.T) {
	registry.Register("t-custom", registry.Info{
		Doc:        "test-only analysis",
		Placements: []registry.Placement{registry.PlaceInSitu},
		Params: map[registry.Placement][]string{
			registry.PlaceInSitu: {"var"},
		},
		Build: func(p registry.Params) (core.Analysis, error) {
			return &core.AssessTestInSitu{Var: p.Var, EveryN: p.Every}, nil
		},
	})
	if _, ok := registry.Lookup("t-custom"); !ok {
		t.Fatal("registered analysis not found by Lookup")
	}
	a, err := registry.New("t-custom", registry.Params{
		Placement: registry.PlaceInSitu, Var: "T", Every: 3,
	})
	if err != nil {
		t.Fatalf("New(t-custom): %v", err)
	}
	if a.Every() != 3 {
		t.Fatalf("Every() = %d, want 3", a.Every())
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := registry.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{
		"stats", "viz", "topology", "featurestats",
		"autocorr", "contingency", "assess", "tracking",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("built-in %q missing from Names(): %v", want, names)
		}
	}
}

func TestDefaultPlacement(t *testing.T) {
	// assess supports exactly one placement: configs may omit it.
	if got := registry.DefaultPlacement("assess"); got != registry.PlaceInSitu {
		t.Errorf("DefaultPlacement(assess) = %q, want %q", got, registry.PlaceInSitu)
	}
	// topology has one placement, hybrid.
	if got := registry.DefaultPlacement("topology"); got != registry.PlaceHybrid {
		t.Errorf("DefaultPlacement(topology) = %q, want %q", got, registry.PlaceHybrid)
	}
	// viz supports two: the config must choose.
	if got := registry.DefaultPlacement("viz"); got != "" {
		t.Errorf("DefaultPlacement(viz) = %q, want \"\"", got)
	}
	if got := registry.DefaultPlacement("no-such-analysis"); got != "" {
		t.Errorf("DefaultPlacement(unknown) = %q, want \"\"", got)
	}
}

func TestCheckTypedErrors(t *testing.T) {
	cases := []struct {
		name     string
		analysis string
		params   registry.Params
		want     error
	}{
		{"unknown analysis", "warp-drive",
			registry.Params{Placement: registry.PlaceInSitu},
			registry.ErrUnknownAnalysis},
		{"invalid placement", "viz",
			registry.Params{Placement: "everywhere"},
			registry.ErrBadPlacement},
		{"unsupported placement", "topology",
			registry.Params{Placement: registry.PlaceInSitu},
			registry.ErrBadPlacement},
		{"retired in-transit placement", "topology",
			registry.Params{Placement: "in-transit"},
			registry.ErrBadPlacement},
		{"omitted placement with several supported", "viz",
			registry.Params{},
			registry.ErrBadPlacement},
		{"stray param for placement", "viz",
			registry.Params{Placement: registry.PlaceInSitu, Factor: 2},
			registry.ErrConflictingParams},
		{"stray param for analysis", "stats",
			registry.Params{Placement: registry.PlaceHybrid, Width: 64},
			registry.ErrConflictingParams},
		{"negative cadence", "stats",
			registry.Params{Placement: registry.PlaceHybrid, Every: -1},
			registry.ErrBadParam},
		{"negative shaping factor", "viz",
			registry.Params{Placement: registry.PlaceHybrid, Factor: -4},
			registry.ErrBadParam},
		{"negative sigma", "assess",
			registry.Params{Placement: registry.PlaceInSitu, Sigma: -1},
			registry.ErrBadParam},
		{"non-positive lag", "autocorr",
			registry.Params{Placement: registry.PlaceHybrid, Lags: []int{2, 0}},
			registry.ErrBadParam},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := registry.Check(tc.analysis, tc.params)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Check(%q, %+v) = %v, want errors.Is %v",
					tc.analysis, tc.params, err, tc.want)
			}
		})
	}
}

func TestCheckAcceptsValidParams(t *testing.T) {
	cases := []struct {
		analysis string
		params   registry.Params
	}{
		{"stats", registry.Params{Placement: registry.PlaceInSitu, Vars: []string{"T"}}},
		{"viz", registry.Params{Placement: registry.PlaceHybrid, Factor: 8}},
		{"topology", registry.Params{Placement: registry.PlaceHybrid, SimplifyEps: 0.05, FeatureThreshold: 1}},
		{"assess", registry.Params{Placement: registry.PlaceInSitu, Var: "T", Sigma: 3}},
		{"autocorr", registry.Params{Placement: registry.PlaceHybrid, Lags: []int{1, 2, 4}}},
		{"contingency", registry.Params{Placement: registry.PlaceHybrid, Var: "T", VarY: "P", XBins: 8, YBins: 8}},
	}
	for _, tc := range cases {
		if err := registry.Check(tc.analysis, tc.params); err != nil {
			t.Errorf("Check(%q, %+v): unexpected error %v", tc.analysis, tc.params, err)
		}
	}
}

// TestNewBuildsConfiguredVariants pins the placement → concrete-type
// mapping the factories implement, including the viz geometry defaults.
func TestNewBuildsConfiguredVariants(t *testing.T) {
	build := func(name string, p registry.Params) core.Analysis {
		t.Helper()
		a, err := registry.New(name, p)
		if err != nil {
			t.Fatalf("New(%q, %+v): %v", name, p, err)
		}
		return a
	}

	if _, ok := build("stats", registry.Params{Placement: registry.PlaceInSitu}).(*core.StatsInSitu); !ok {
		t.Error("stats in-situ did not build *core.StatsInSitu")
	}
	if _, ok := build("stats", registry.Params{Placement: registry.PlaceHybrid}).(*core.StatsHybrid); !ok {
		t.Error("stats hybrid did not build *core.StatsHybrid")
	}
	if _, ok := build("viz", registry.Params{Placement: registry.PlaceInSitu}).(*core.VizInSitu); !ok {
		t.Error("viz in-situ did not build *core.VizInSitu")
	}
	if _, ok := build("viz", registry.Params{Placement: registry.PlaceHybrid}).(*core.VizHybrid); !ok {
		t.Error("viz hybrid did not build *core.VizHybrid")
	}
	if _, ok := build("topology", registry.Params{Placement: registry.PlaceHybrid}).(*core.TopologyHybrid); !ok {
		t.Error("topology hybrid did not build *core.TopologyHybrid")
	}

	// The cadence threads through every factory.
	if got := build("tracking", registry.Params{Placement: registry.PlaceHybrid, Every: 5}).Every(); got != 5 {
		t.Errorf("tracking Every() = %d, want 5", got)
	}

	// Tags distinguish simultaneous instances by name.
	a := build("viz", registry.Params{Placement: registry.PlaceHybrid, Tag: "side"})
	b := build("viz", registry.Params{Placement: registry.PlaceHybrid})
	if a.Name() == b.Name() {
		t.Errorf("tagged viz shares name %q with untagged viz", a.Name())
	}
	if !strings.Contains(a.Name(), "side") {
		t.Errorf("tagged viz name %q does not carry the tag", a.Name())
	}
}
