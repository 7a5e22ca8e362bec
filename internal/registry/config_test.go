package registry_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"insitu/internal/overload"
	"insitu/internal/registry"
)

// TestParseConfigMalformed is the malformed-config table: every way a
// declarative pipeline can be wrong maps to one typed sentinel error,
// matchable with errors.Is through the ValidationError wrapping.
func TestParseConfigMalformed(t *testing.T) {
	// two is a fabric block with two one-analysis tenants, where the
	// scheduler's knobs apply.
	two := func(fabric string) string {
		return `{"fabric": ` + fabric + `, "tenants": [
			{"name": "a", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
			 "analyses": [{"analysis": "stats", "placement": "hybrid"}]},
			{"name": "b", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
			 "analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`
	}
	cases := []struct {
		name string
		src  string
		want error
		path string // the failing key, where the case checks it
	}{
		{
			name: "unknown analysis",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "warp-drive", "placement": "hybrid"}]}]}`,
			want: registry.ErrUnknownAnalysis,
		},
		{
			name: "duplicate tenant",
			src: `{"tenants": [
				{"name": "alpha", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]},
				{"name": "alpha", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrDuplicateTenant,
		},
		{
			name: "hybrid analysis without transit fabric",
			src: `{"fabric": {"buckets": 0},
				"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrNoTransitFabric,
		},
		{
			name: "negative shaping factor",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "viz", "placement": "hybrid", "factor": -2}]}]}`,
			want: registry.ErrBadParam,
		},
		{
			name: "param the placement does not consume",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "viz", "placement": "in-situ", "factor": 2}]}]}`,
			want: registry.ErrConflictingParams,
		},
		{
			name: "bad placement",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "viz", "placement": "sideways"}]}]}`,
			want: registry.ErrBadPlacement,
		},
		{
			name: "retired in-transit topology placement",
			src: `{"fabric": {"buckets": 1},
				"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "topology", "placement": "in-transit"}]}]}`,
			want: registry.ErrBadPlacement,
		},
		{
			name: "omitted placement where the analysis supports several",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "viz"}]}]}`,
			want: registry.ErrBadPlacement,
		},
		{
			name: "scheduler knob in single-tenant config",
			src: `{"fabric": {"autoscale": {"min": 2, "max": 4}},
				"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrConflictingParams,
		},
		{
			name: "named lone tenant",
			src: `{"tenants": [{"name": "solo", "overload": {"queue_bound": 4},
				"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrConflictingParams,
			path: "tenants[0].name",
		},
		{
			name: "recovery in multi-tenant config",
			src: `{"recovery": {"dir": "out/j"},
				"tenants": [
				{"name": "a", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]},
				{"name": "b", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrConflictingParams,
		},
		{
			name: "no tenants",
			src:  `{"tenants": []}`,
			want: registry.ErrNoTenants,
		},
		{
			name: "tenant with no analyses",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": []}]}`,
			want: registry.ErrNoAnalyses,
		},
		{
			name: "unknown codec",
			src: `{"tenants": [{"codec": {"id": "gzip"},
				"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrBadParam,
		},
		{
			name: "codec knob on the wrong codec",
			src: `{"tenants": [{"codec": {"id": "delta", "max_error": 0.5},
				"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrConflictingParams,
		},
		{
			name: "zero sim dimension",
			src: `{"tenants": [{"sim": {"nx": 8, "ny": 0, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrBadParam,
		},
		{
			name: "slowdown scoped to unknown tenant",
			src: `{"faults": {"slowdowns": [{"from": 1, "until": 5, "tenant": "ghost", "factor": 10}]},
				"tenants": [
				{"name": "a", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]},
				{"name": "b", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				 "analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrBadParam,
		},
		{
			name: "tenant-scoped slowdown in single-tenant config",
			src: `{"faults": {"slowdowns": [{"from": 1, "until": 5, "tenant": "a", "factor": 10}]},
				"tenants": [{"name": "a", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
				"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`,
			want: registry.ErrConflictingParams,
		},
		{
			name: "bucket cap below the resolved bucket count",
			src:  two(`{"max_buckets": 2}`),
			want: registry.ErrBadParam,
			path: "fabric.max_buckets",
		},
		{
			name: "negative bucket cap",
			src:  two(`{"max_buckets": -1}`),
			want: registry.ErrBadParam,
			path: "fabric.max_buckets",
		},
		{
			name: "negative tenant reserve",
			src:  two(`{"tenant_reserve": -1}`),
			want: registry.ErrBadParam,
			path: "fabric.tenant_reserve",
		},
		{
			name: "negative queue bound",
			src:  two(`{"queue_bound": -1}`),
			want: registry.ErrBadParam,
			path: "fabric.queue_bound",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := registry.ParseConfig([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseConfig accepted a malformed config: %+v", cfg)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is %v", err, tc.want)
			}
			var verr *registry.ValidationError
			if tc.path != "" && (!errors.As(err, &verr) || verr.Path != tc.path) {
				t.Fatalf("error = %v, want a ValidationError at %s", err, tc.path)
			}
		})
	}
}

// TestParseConfigStrictKeys: a typo'd knob must fail decoding, never
// silently validate.
func TestParseConfigStrictKeys(t *testing.T) {
	_, err := registry.ParseConfig([]byte(
		`{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
			"analyses": [{"analysis": "stats", "placement": "hybrid", "evrey": 2}]}]}`))
	if err == nil {
		t.Fatal("ParseConfig accepted an unknown key")
	}
	if !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("error = %v, want an unknown-field decode error", err)
	}
}

// TestValidationErrorPaths: every failure names the config path that
// produced it, and the wrapper exposes the typed error to errors.As.
func TestValidationErrorPaths(t *testing.T) {
	_, err := registry.ParseConfig([]byte(
		`{"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
			"analyses": [
				{"analysis": "stats", "placement": "hybrid"},
				{"analysis": "warp-drive", "placement": "hybrid"}]}]}`))
	if err == nil {
		t.Fatal("expected a validation error")
	}
	var verr *registry.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %v does not wrap a *ValidationError", err)
	}
	if !strings.Contains(verr.Path, "analyses[1]") {
		t.Errorf("ValidationError.Path = %q, want it to locate analyses[1]", verr.Path)
	}
	if !errors.Is(verr, registry.ErrUnknownAnalysis) {
		t.Errorf("ValidationError does not unwrap to ErrUnknownAnalysis: %v", verr)
	}
}

// TestDuplicateRouteRejected: two analyses of one tenant that resolve to
// the same route name used to be accepted and then share one results
// slot, one DataSpaces key and one codec stream. The second one fails
// with ErrDuplicateRoute at its own path; the same analysis in another
// tenant, or a second viz view under its own tag, is a different route.
func TestDuplicateRouteRejected(t *testing.T) {
	const sim = `"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1}`
	_, err := registry.ParseConfig([]byte(`{"tenants": [
		{"name": "a", ` + sim + `, "analyses": [{"analysis": "stats", "placement": "hybrid"}]},
		{"name": "b", ` + sim + `, "analyses": [
			{"analysis": "stats", "placement": "hybrid"},
			{"analysis": "viz", "placement": "hybrid"},
			{"analysis": "stats", "placement": "hybrid", "every": 2}]}]}`))
	var verr *registry.ValidationError
	if !errors.As(err, &verr) || !errors.Is(err, registry.ErrDuplicateRoute) {
		t.Fatalf("error = %v, want a ValidationError wrapping ErrDuplicateRoute", err)
	}
	if verr.Path != "tenants[1].analyses[2]" {
		t.Errorf("ValidationError.Path = %q, want tenants[1].analyses[2]", verr.Path)
	}

	cfg, err := registry.ParseConfig([]byte(`{"tenants": [{` + sim + `, "analyses": [
		{"analysis": "viz", "placement": "hybrid"},
		{"analysis": "viz", "placement": "hybrid", "tag": "side"}]}]}`))
	if err != nil {
		t.Fatalf("two viz views under distinct tags rejected: %v", err)
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Close()
	if r := b.Tenants[0].Routes; len(r) != 2 || r[0] == r[1] {
		t.Errorf("Routes = %q, want two distinct route names", r)
	}
}

// TestValidateJoinsAllErrors: validation reports every problem at
// once, not just the first.
func TestValidateJoinsAllErrors(t *testing.T) {
	_, err := registry.ParseConfig([]byte(
		`{"fabric": {"tenant_reserve": 8},
			"tenants": [{"sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
			"analyses": [
				{"analysis": "warp-drive", "placement": "hybrid"},
				{"analysis": "viz", "placement": "hybrid", "factor": -1}]}]}`))
	if err == nil {
		t.Fatal("expected validation errors")
	}
	for _, want := range []error{
		registry.ErrConflictingParams, // a tenant reserve in a single-tenant config
		registry.ErrUnknownAnalysis,
		registry.ErrBadParam, // negative shaping factor
	} {
		if !errors.Is(err, want) {
			t.Errorf("joined error does not include %v:\n%v", want, err)
		}
	}
}

// validatePurityConfig is a config touching every validated subtree:
// fabric, autoscale, quarantine, codecs, analyses, faults.
func validatePurityConfig() *registry.Config {
	buckets := 2
	return &registry.Config{
		Name:  "purity",
		Steps: 10,
		Fabric: registry.FabricConfig{
			DSServers:     2,
			Buckets:       &buckets,
			MaxBuckets:    4,
			Net:           registry.NetConfig{Profile: "gemini", TimeScale: 0.1},
			QueueBound:    4,
			TenantReserve: 2,
			Autoscale:     &overload.AutoscaleConfig{Min: 2, Max: 4},
			Quarantine:    &overload.QuarantineConfig{Strikes: 2, ProbeAfter: 2},
		},
		Tenants: []registry.TenantConfig{
			{
				Name: "alpha",
				Sim:  registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
				Codec: &registry.CodecConfig{
					ID: "quantize", MaxError: 0.01,
				},
				Analyses: []registry.AnalysisConfig{
					{Analysis: "viz", Params: registry.Params{
						Placement: registry.PlaceHybrid, Factor: 4,
					}},
				},
			},
			{
				Name: "beta",
				Sim:  registry.SimConfig{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, PZ: 1},
				Analyses: []registry.AnalysisConfig{
					{Analysis: "stats", Params: registry.Params{
						Placement: registry.PlaceHybrid, Vars: []string{"T"},
					}},
				},
			},
		},
		Faults: &registry.FaultsConfig{
			Seed: 7,
			Slowdowns: []registry.SlowdownConfig{
				{From: 2, Until: 6, Tenant: "beta", Factor: 100},
			},
		},
	}
}

// TestValidatePure: Validate fills no defaults and mutates nothing —
// the same Config marshals byte-identically before and after, for
// valid and invalid configs alike, and repeated validation is stable.
func TestValidatePure(t *testing.T) {
	check := func(name string, cfg *registry.Config, wantErr bool) {
		t.Helper()
		before, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal before: %v", name, err)
		}
		err1 := cfg.Validate()
		err2 := cfg.Validate()
		if (err1 != nil) != wantErr {
			t.Fatalf("%s: Validate() = %v, wantErr %v", name, err1, wantErr)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: repeated Validate disagrees: %v vs %v", name, err1, err2)
		}
		after, err := cfg.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal after: %v", name, err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: Validate mutated the config:\nbefore:\n%s\nafter:\n%s",
				name, before, after)
		}
	}

	check("valid", validatePurityConfig(), false)

	bad := validatePurityConfig()
	bad.Tenants[0].Analyses[0].Factor = -1
	bad.Tenants[1].Name = "alpha"
	check("invalid", bad, true)
}
