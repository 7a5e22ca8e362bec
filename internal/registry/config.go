package registry

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"insitu/internal/codec"
	"insitu/internal/core"
	"insitu/internal/netsim"
	"insitu/internal/overload"
)

// Config is one declarative pipeline run: a shared fabric, one or more
// tenants, and the optional recovery/store/fault planes. It is the
// JSON document LoadConfig reads and the value Build executes. A
// single tenant builds a core.Pipeline; several build a
// core.Scheduler. The zero value of every knob means "core default" —
// a config states only what it changes, and Validate never fills
// defaults in (purity lets the same Config be validated, diffed, and
// built without drift).
type Config struct {
	// Name labels the run in output and tooling (optional).
	Name string `json:"name,omitempty"`
	// Steps is the default step count when the launcher's -steps flag
	// is not given (0 = launcher default).
	Steps int `json:"steps,omitempty"`
	// Fabric configures the shared transit tier: DataSpaces shards,
	// staging buckets, the modeled interconnect, and the scheduler-
	// level knobs for multi-tenant runs.
	Fabric FabricConfig `json:"fabric"`
	// Tenants declares the pipelines sharing the fabric, each a tenant
	// of the one core.Scheduler; names are required (and must be
	// unique) once there are several.
	Tenants []TenantConfig `json:"tenants"`
	// Recovery, when non-nil, enables the durable step journal and
	// checkpoint/restart plane (single-tenant only).
	Recovery *core.RecoveryConfig `json:"recovery,omitempty"`
	// Store, when non-nil, files rendered frames into the Cinema-style
	// image database (single-tenant only).
	Store *StoreConfig `json:"store,omitempty"`
	// Faults, when non-nil, installs a deterministic fault schedule on
	// the modeled network.
	Faults *FaultsConfig `json:"faults,omitempty"`
}

// FabricConfig declares the shared transit tier. The scheduler-only
// fields (MaxBuckets, TenantReserve, Autoscale, Quarantine)
// are rejected by Validate in single-tenant configs, where they have
// no carrier.
type FabricConfig struct {
	// DSServers is the DataSpaces service shard count (0 = 2).
	DSServers int `json:"ds_servers,omitempty"`
	// Buckets is the staging-bucket count. Omitted (null) = 4, the
	// repo's default transit tier; an explicit 0 declares a fabric
	// with no transit tier at all, so hybrid/in-transit analyses fail
	// validation with ErrNoTransitFabric.
	Buckets *int `json:"buckets,omitempty"`
	// MaxBuckets caps the autoscaled pool (multi-tenant only).
	MaxBuckets int `json:"max_buckets,omitempty"`
	// Net selects the modeled interconnect.
	Net NetConfig `json:"net,omitempty"`
	// QueueBound bounds each tenant's task queue (multi-tenant; the
	// single-tenant bound lives in the tenant's overload config).
	QueueBound int `json:"queue_bound,omitempty"`
	// TenantReserve is each tenant's guaranteed credit floor — the
	// bulkhead (multi-tenant only).
	TenantReserve int `json:"tenant_reserve,omitempty"`
	// Autoscale, when non-nil, lets the scheduler grow/shrink the
	// bucket pool (multi-tenant only).
	Autoscale *overload.AutoscaleConfig `json:"autoscale,omitempty"`
	// Quarantine tunes the poison-route quarantine (multi-tenant
	// only).
	Quarantine *overload.QuarantineConfig `json:"quarantine,omitempty"`
}

// NetConfig selects and scales the modeled interconnect.
type NetConfig struct {
	// Profile names the hardware model: "" (uncontended defaults) or
	// "gemini" (the Cray XK6 Gemini profile from the paper's Titan
	// runs).
	Profile string `json:"profile,omitempty"`
	// TimeScale turns modeled transfer time into wall time: a transfer
	// modeled at d sleeps d/TimeScale (0 = never sleep; the soak
	// scenarios' 0.1 stretches every transfer 10x).
	TimeScale float64 `json:"time_scale,omitempty"`
}

// StoreConfig declares the Cinema-style image database sink.
type StoreConfig struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Serve, when non-empty, is the address the launcher serves the
	// database on over HTTP (e.g. ":8080"; the viewer page, /db, /img,
	// /latest.json).
	Serve string `json:"serve,omitempty"`
}

// FaultsConfig is the deterministic fault schedule in JSON form.
// Only the knobs the scenarios exercise are declared; richer
// schedules still go through faults.Config in Go.
type FaultsConfig struct {
	// Seed drives the injector's PRNG.
	Seed int64 `json:"seed,omitempty"`
	// Slowdowns are the scheduled bandwidth-collapse windows.
	Slowdowns []SlowdownConfig `json:"slowdowns,omitempty"`
}

// SlowdownConfig is one bandwidth-collapse (brownout) window.
type SlowdownConfig struct {
	// From/Until bound the window in transfer indices.
	From  int `json:"from"`
	Until int `json:"until"`
	// Tenant scopes the window to one tenant's rank endpoints
	// (multi-tenant configs; resolved to endpoint IDs at Build time).
	// Empty hits every transfer in the window.
	Tenant string `json:"tenant,omitempty"`
	// Factor multiplies the modeled duration of covered transfers.
	Factor float64 `json:"factor,omitempty"`
}

// TenantConfig declares one pipeline: its simulation, its analysis
// list, and its admission/codec tuning.
type TenantConfig struct {
	// Name identifies the tenant (required in multi-tenant configs).
	Name string `json:"name,omitempty"`
	// Sim sizes the proxy simulation.
	Sim SimConfig `json:"sim"`
	// StepBudgetMS is every submitted task's data-movement deadline in
	// milliseconds (0 = none; core.TenantConfig.StepBudget).
	StepBudgetMS int `json:"step_budget_ms,omitempty"`
	// Overload is the graded admission plane: an unnamed tenant has
	// one only when this is non-nil, a named tenant always, tuned by
	// it.
	Overload *OverloadConfig `json:"overload,omitempty"`
	// Codec is the default transfer-path codec for every hybrid route
	// ("*" in core terms); per-analysis codecs override it.
	Codec *CodecConfig `json:"codec,omitempty"`
	// Analyses is the tenant's analysis list, registered in order.
	Analyses []AnalysisConfig `json:"analyses"`
}

// SimConfig sizes one tenant's proxy simulation.
type SimConfig struct {
	// NX/NY/NZ are the global grid dimensions (all required).
	NX int `json:"nx"`
	NY int `json:"ny"`
	NZ int `json:"nz"`
	// PX/PY/PZ decompose the grid into ranks (all required).
	PX int `json:"px"`
	PY int `json:"py"`
	PZ int `json:"pz"`
	// SubSteps runs the solver N times per pipeline step (0 = 1).
	SubSteps int `json:"sub_steps,omitempty"`
	// Seed initializes the jet perturbations (0 = 1, the repo
	// default).
	Seed int64 `json:"seed,omitempty"`
}

// AnalysisConfig is one analysis entry: its registry name, its typed
// params, and an optional route-specific codec.
type AnalysisConfig struct {
	// Analysis is the registry name ("stats", "viz", "topology", ...).
	Analysis string `json:"analysis"`
	// Params is inlined: placement, every, var, width, ... appear as
	// sibling keys of "analysis" in the JSON document.
	Params
	// Codec overrides the tenant default codec for this route.
	Codec *CodecConfig `json:"codec,omitempty"`
}

// OverloadConfig mirrors overload.Config in JSON form, with durations
// in microseconds (the only conversion; the ladder block decodes
// straight into overload.LadderConfig).
type OverloadConfig struct {
	// Breaker tunes the per-route circuit breaker.
	Breaker BreakerConfig `json:"breaker,omitempty"`
	// Ladder tunes the admission ladder.
	Ladder overload.LadderConfig `json:"ladder,omitempty"`
	// QueueBound bounds the task-queue depth (0 = 8). It is read only
	// for an unnamed lone tenant; named tenants are sized by the
	// fabric's queue_bound and tenant_reserve.
	QueueBound int `json:"queue_bound,omitempty"`
	// ProbeLatencyMaxUS fails slow half-open probes (µs; 0 = 5000).
	ProbeLatencyMaxUS int `json:"probe_latency_max_us,omitempty"`
}

// BreakerConfig mirrors overload.BreakerConfig in JSON form.
type BreakerConfig struct {
	// FailureThreshold opens the breaker after N consecutive failures.
	FailureThreshold int `json:"failure_threshold,omitempty"`
	// LatencyThresholdUS opens it when the latency EWMA passes this
	// (µs).
	LatencyThresholdUS int `json:"latency_threshold_us,omitempty"`
	// LatencyAlpha smooths the success-latency EWMA.
	LatencyAlpha float64 `json:"latency_alpha,omitempty"`
	// CooldownUS is the open→half-open wait (µs).
	CooldownUS int `json:"cooldown_us,omitempty"`
}

// CodecConfig selects a transfer-path codec.
type CodecConfig struct {
	// ID names the codec: "identity", "delta", or "quantize".
	ID string `json:"id"`
	// MaxError is quantize's absolute error bound (quantize only).
	MaxError float64 `json:"max_error,omitempty"`
}

// ValidationError ties a typed registry error to the config path that
// produced it ("tenants[1].analyses[0]", "fabric.autoscale", ...).
type ValidationError struct {
	// Path is the JSON-ish path of the failing element.
	Path string
	// Err is the underlying typed error (errors.Is-matchable).
	Err error
}

// Error implements error.
func (e *ValidationError) Error() string { return e.Path + ": " + e.Err.Error() }

// Unwrap exposes the typed error to errors.Is/As.
func (e *ValidationError) Unwrap() error { return e.Err }

// LoadConfig reads, strictly decodes (unknown keys are errors — a
// typo'd knob must not silently validate), and validates a pipeline
// config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// ParseConfig strictly decodes and validates a pipeline config from
// JSON bytes.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Marshal renders the config as indented JSON (the exact bytes the
// example files pin in tests).
func (c *Config) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Validate checks the whole config without executing or mutating
// anything: every analysis resolves through the registry with its
// placement and params (it is constructed, to learn its route name),
// tenant names and each tenant's route names are unique, scheduler-only knobs
// and tenant names appear only in multi-tenant configs, and every cross-reference
// (slowdown tenant scopes, codec IDs) lands. Errors are
// *ValidationError values aggregated with errors.Join; match them
// with errors.Is against the Err* sentinels.
func (c *Config) Validate() error {
	var errs []error
	fail := func(path string, err error) { errs = append(errs, &ValidationError{Path: path, Err: err}) }

	if len(c.Tenants) == 0 {
		fail("tenants", ErrNoTenants)
		return errors.Join(errs...)
	}
	multi := len(c.Tenants) > 1

	if !multi {
		if c.Fabric.MaxBuckets != 0 {
			fail("fabric.max_buckets", fmt.Errorf("%w: scheduler knob in a single-tenant config", ErrConflictingParams))
		}
		if c.Fabric.TenantReserve != 0 {
			fail("fabric.tenant_reserve", fmt.Errorf("%w: scheduler knob in a single-tenant config", ErrConflictingParams))
		}
		if c.Fabric.QueueBound != 0 {
			fail("fabric.queue_bound", fmt.Errorf("%w: scheduler knob in a single-tenant config (use the tenant's overload.queue_bound)", ErrConflictingParams))
		}
		if c.Fabric.Autoscale != nil {
			fail("fabric.autoscale", fmt.Errorf("%w: scheduler knob in a single-tenant config", ErrConflictingParams))
		}
		if c.Fabric.Quarantine != nil {
			fail("fabric.quarantine", fmt.Errorf("%w: scheduler knob in a single-tenant config", ErrConflictingParams))
		}
		if c.Tenants[0].Name != "" {
			// A named tenant runs with the multi-tenant semantics, which
			// read the scheduler knobs refused above: its own
			// overload.queue_bound would be accepted and ignored.
			fail("tenants[0].name", fmt.Errorf("%w: a lone tenant is unnamed; a name gives it the multi-tenant semantics", ErrConflictingParams))
		}
	} else {
		if c.Recovery != nil {
			fail("recovery", fmt.Errorf("%w: recovery is single-tenant only (the journal must own the task queue)", ErrConflictingParams))
		}
		if c.Store != nil {
			fail("store", fmt.Errorf("%w: the image store is single-tenant only", ErrConflictingParams))
		}
		if m := c.Fabric.MaxBuckets; m < 0 || (m > 0 && m < c.TransitBuckets()) {
			fail("fabric.max_buckets", fmt.Errorf("%w: bucket cap %d is negative or below fabric.buckets %d", ErrBadParam, m, c.TransitBuckets()))
		}
		if c.Fabric.TenantReserve < 0 {
			fail("fabric.tenant_reserve", fmt.Errorf("%w: negative credit floor %d", ErrBadParam, c.Fabric.TenantReserve))
		}
		if c.Fabric.QueueBound < 0 {
			fail("fabric.queue_bound", fmt.Errorf("%w: negative queue bound %d", ErrBadParam, c.Fabric.QueueBound))
		}
	}

	if c.Fabric.DSServers < 0 {
		fail("fabric.ds_servers", fmt.Errorf("%w: negative shard count %d", ErrBadParam, c.Fabric.DSServers))
	}
	if c.Fabric.Buckets != nil && *c.Fabric.Buckets < 0 {
		fail("fabric.buckets", fmt.Errorf("%w: negative bucket count %d", ErrBadParam, *c.Fabric.Buckets))
	}
	switch c.Fabric.Net.Profile {
	case "", "gemini":
	default:
		fail("fabric.net.profile", fmt.Errorf("%w: unknown profile %q (known: gemini)", ErrBadParam, c.Fabric.Net.Profile))
	}
	if c.Fabric.Net.TimeScale < 0 {
		fail("fabric.net.time_scale", fmt.Errorf("%w: negative time scale %v", ErrBadParam, c.Fabric.Net.TimeScale))
	}

	if c.Recovery != nil && c.Recovery.Dir == "" {
		fail("recovery.dir", fmt.Errorf("%w: recovery requires a directory", ErrBadParam))
	}
	if c.Store != nil && c.Store.Dir == "" {
		fail("store.dir", fmt.Errorf("%w: the store requires a directory", ErrBadParam))
	}

	hasTransit := c.TransitBuckets() > 0
	seen := make(map[string]bool, len(c.Tenants))
	for ti := range c.Tenants {
		t := &c.Tenants[ti]
		path := fmt.Sprintf("tenants[%d]", ti)
		if multi && t.Name == "" {
			fail(path+".name", fmt.Errorf("%w: tenant name required in multi-tenant configs", ErrBadParam))
		}
		if t.Name != "" {
			if seen[t.Name] {
				fail(path+".name", fmt.Errorf("%w: %q", ErrDuplicateTenant, t.Name))
			}
			seen[t.Name] = true
		}
		if t.StepBudgetMS < 0 {
			fail(path+".step_budget_ms", fmt.Errorf("%w: negative step budget", ErrBadParam))
		}
		validateSim(t.Sim, path+".sim", fail)
		if t.Codec != nil {
			validateCodec(t.Codec, path+".codec", fail)
		}
		if len(t.Analyses) == 0 {
			fail(path+".analyses", ErrNoAnalyses)
		}
		routes := make(map[string]int, len(t.Analyses))
		for ai := range t.Analyses {
			a := &t.Analyses[ai]
			apath := fmt.Sprintf("%s.analyses[%d]", path, ai)
			p := a.params()
			an, err := New(a.Analysis, p)
			if err != nil {
				fail(apath, err)
				continue
			}
			if first, dup := routes[an.Name()]; dup {
				fail(apath, fmt.Errorf("%w: %q is already the route of analyses[%d]; set a \"tag\" where the analysis takes one, or drop it", ErrDuplicateRoute, an.Name(), first))
			} else {
				routes[an.Name()] = ai
			}
			if !hasTransit && p.Placement != PlaceInSitu {
				fail(apath, fmt.Errorf("%w: %q placed %q but fabric.buckets is 0", ErrNoTransitFabric, a.Analysis, p.Placement))
			}
			if a.Codec != nil {
				validateCodec(a.Codec, apath+".codec", fail)
			}
		}
	}

	if c.Faults != nil {
		for si, s := range c.Faults.Slowdowns {
			spath := fmt.Sprintf("faults.slowdowns[%d]", si)
			if s.Until < s.From || s.From < 0 {
				fail(spath, fmt.Errorf("%w: bad window [%d, %d)", ErrBadParam, s.From, s.Until))
			}
			if s.Factor < 0 {
				fail(spath+".factor", fmt.Errorf("%w: negative factor %v", ErrBadParam, s.Factor))
			}
			if s.Tenant != "" {
				if !multi {
					fail(spath+".tenant", fmt.Errorf("%w: tenant-scoped slowdown in a single-tenant config", ErrConflictingParams))
				} else if !seen[s.Tenant] {
					fail(spath+".tenant", fmt.Errorf("%w: unknown tenant %q", ErrBadParam, s.Tenant))
				}
			}
		}
	}

	return errors.Join(errs...)
}

// params resolves one analysis entry's placement: its own, else the
// only one the analysis supports.
func (a *AnalysisConfig) params() Params {
	p := a.Params
	p.Placement = cmp.Or(p.Placement, DefaultPlacement(a.Analysis))
	return p
}

// TransitBuckets resolves the fabric's bucket count: omitted = the
// repo default of 4, explicit values (including 0) stand.
func (c *Config) TransitBuckets() int {
	if c.Fabric.Buckets == nil {
		return 4
	}
	return *c.Fabric.Buckets
}

// validateSim checks the required simulation dimensions.
func validateSim(s SimConfig, path string, fail func(string, error)) {
	dims := []struct {
		name string
		v    int
	}{
		{"nx", s.NX}, {"ny", s.NY}, {"nz", s.NZ},
		{"px", s.PX}, {"py", s.PY}, {"pz", s.PZ},
	}
	for _, d := range dims {
		if d.v < 1 {
			fail(path+"."+d.name, fmt.Errorf("%w: %s must be >= 1 (got %d)", ErrBadParam, d.name, d.v))
		}
	}
	if s.SubSteps < 0 {
		fail(path+".sub_steps", fmt.Errorf("%w: negative sub_steps", ErrBadParam))
	}
}

// validateCodec checks a codec selection and its knob pairing.
func validateCodec(cc *CodecConfig, path string, fail func(string, error)) {
	switch cc.ID {
	case "identity", "delta", "quantize":
	default:
		fail(path+".id", fmt.Errorf("%w: unknown codec %q (known: identity, delta, quantize)", ErrBadParam, cc.ID))
		return
	}
	if cc.MaxError != 0 && cc.ID != "quantize" {
		fail(path+".max_error", fmt.Errorf("%w: max_error applies only to quantize", ErrConflictingParams))
	}
	if cc.MaxError < 0 {
		fail(path+".max_error", fmt.Errorf("%w: negative max_error %v", ErrBadParam, cc.MaxError))
	}
}

// codecSpec converts a validated CodecConfig to the core codec spec.
func codecSpec(cc *CodecConfig) codec.Spec {
	var id codec.ID
	switch cc.ID {
	case "identity":
		id = codec.Identity
	case "delta":
		id = codec.Delta
	case "quantize":
		id = codec.Quantize
	}
	return codec.Spec{ID: id, MaxError: cc.MaxError}
}

// netConfig converts a validated NetConfig to the netsim config.
func netConfig(nc NetConfig) netsim.Config {
	var n netsim.Config
	if nc.Profile == "gemini" {
		n = netsim.Gemini()
	}
	n.TimeScale = nc.TimeScale
	return n
}

// overloadConfig converts a validated OverloadConfig to the overload
// plane's config.
func overloadConfig(oc *OverloadConfig) *overload.Config {
	if oc == nil {
		return nil
	}
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	return &overload.Config{
		Breaker: overload.BreakerConfig{
			FailureThreshold: oc.Breaker.FailureThreshold,
			LatencyThreshold: us(oc.Breaker.LatencyThresholdUS),
			LatencyAlpha:     oc.Breaker.LatencyAlpha,
			Cooldown:         us(oc.Breaker.CooldownUS),
		},
		Ladder:          oc.Ladder,
		QueueBound:      oc.QueueBound,
		ProbeLatencyMax: us(oc.ProbeLatencyMaxUS),
	}
}
