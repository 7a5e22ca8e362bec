// Package registry is the runtime-pluggable analysis registry and the
// declarative pipeline-configuration layer above internal/core.
//
// Analyses self-register by name at init() time (Register), each with
// a factory that takes a typed Params bag — placement, cadence,
// shaping factors, camera counts, thresholds — and returns a
// configured core.Analysis. Pipelines are then *declared* rather than
// hand-wired: a JSON config (LoadConfig) names one or more tenants,
// each with its analysis list, placement, codec/overload knobs, and
// store/recovery settings, and Build routes core.Pipeline and
// core.Scheduler construction through the registry. New workloads
// become new configs, not new Go code — the separation SENSEI draws
// between analysis adaptors, bridge code, and runtime backend
// selection from a config file.
//
// Ownership and lifecycle: the package-level registry is append-only
// and process-wide — Register is called from init() functions and
// never unregisters; Lookup/Names/Check/New are safe for concurrent
// use at any time. Built pipelines follow core's lifecycle (build,
// register, Run once); the registry itself holds no per-run state.
package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"insitu/internal/core"
)

// Placement selects where an analysis runs, the paper's central axis:
// fully on the simulation ranks, or split across ranks and staging
// buckets.
type Placement string

// The two placements a pipeline config can declare per analysis.
// PlaceHybrid is the paper's default decomposition (a massively
// parallel in-situ stage plus a small in-transit stage); PlaceInSitu
// completes on the primary resource.
const (
	PlaceInSitu Placement = "in-situ"
	PlaceHybrid Placement = "hybrid"
)

// Valid reports whether p is one of the two declared placements.
func (p Placement) Valid() bool {
	switch p {
	case PlaceInSitu, PlaceHybrid:
		return true
	}
	return false
}

// Params is the typed parameter bag a factory receives. One struct
// serves every analysis; each factory declares (in its Info) which
// fields it consumes per placement, and any other non-zero field is a
// conflicting-params error — a config cannot silently set a knob the
// analysis ignores. Field semantics follow the core analysis structs;
// zero values mean "use the analysis default".
type Params struct {
	// Placement selects the analysis variant (resolved before the
	// factory runs; always valid and supported inside Build).
	Placement Placement `json:"placement,omitempty"`
	// Every is the cadence in steps (0 = every step).
	Every int `json:"every,omitempty"`
	// Var is the primary variable (rendered scalar, tracked field,
	// contingency X, ...).
	Var string `json:"var,omitempty"`
	// VarY is the secondary variable (conditioned variable, contingency
	// Y).
	VarY string `json:"var_y,omitempty"`
	// Vars lists the summarized variables for the statistics analyses.
	Vars []string `json:"vars,omitempty"`
	// Tag distinguishes multiple simultaneous instances (linked views);
	// it is appended to the analysis name.
	Tag string `json:"tag,omitempty"`
	// Width and Height size rendered frames.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Factor is the hybrid visualization down-sampling factor (the
	// shaping factor; the paper uses 8).
	Factor int `json:"factor,omitempty"`
	// Cameras renders each due step from an orbit of N view directions
	// (the image database's camera axis; 0/1 = the single default
	// view).
	Cameras int `json:"cameras,omitempty"`
	// Threshold defines superlevel-set features (feature statistics,
	// tracking) or the outlier sigma replacement (assess uses Sigma).
	Threshold float64 `json:"threshold,omitempty"`
	// Sigma is the assess & test outlier threshold in standard
	// deviations.
	Sigma float64 `json:"sigma,omitempty"`
	// SimplifyEps prunes topology branches below this persistence.
	SimplifyEps float64 `json:"simplify_eps,omitempty"`
	// FeatureThreshold extracts topology features at this level.
	FeatureThreshold float64 `json:"feature_threshold,omitempty"`
	// Lags are the auto-correlation lags in steps.
	Lags []int `json:"lags,omitempty"`
	// XBins and YBins size the contingency table.
	XBins int `json:"x_bins,omitempty"`
	YBins int `json:"y_bins,omitempty"`
	// FailAttempts is consumed by deliberately failing drill analyses
	// (the tenants scenario's poison route).
	FailAttempts int `json:"fail_attempts,omitempty"`
}

// Factory builds one configured analysis from a validated Params bag.
type Factory func(p Params) (core.Analysis, error)

// Info is everything an analysis registers: which placements it
// supports, which Params fields each placement consumes, an optional
// extra range check, and the factory. Registrations are process-wide
// and permanent; Info values must not be mutated after Register.
type Info struct {
	// Doc is a one-line description (s3dpipe -list prints it).
	Doc string
	// Placements lists the supported placements. When exactly one is
	// supported it is also the default for configs that omit placement.
	Placements []Placement
	// Params maps each supported placement to the JSON names of the
	// Params fields the factory consumes there. "placement" and
	// "every" are always allowed; any other non-zero field outside the
	// list fails Check with ErrConflictingParams.
	Params map[Placement][]string
	// Check, when non-nil, vets value ranges beyond the generic
	// stray-field check. It must be pure: no side effects, no state.
	Check func(p Params) error
	// Build constructs the analysis. It runs only after Check passed.
	Build Factory
}

// Typed registry errors. Validation wraps them (errors.Is-matchable)
// with the config path that failed.
var (
	// ErrUnknownAnalysis means the config names an analysis nothing
	// registered.
	ErrUnknownAnalysis = errors.New("registry: unknown analysis")
	// ErrBadPlacement means the placement is not one of the two
	// declared ones, is unsupported by the analysis, or was omitted
	// where the analysis supports more than one.
	ErrBadPlacement = errors.New("registry: bad placement")
	// ErrConflictingParams means a config sets a parameter the selected
	// analysis/placement does not consume, or two settings that cannot
	// hold together.
	ErrConflictingParams = errors.New("registry: conflicting params")
	// ErrBadParam means a parameter value is out of range (negative
	// shaping factor, negative cadence, ...).
	ErrBadParam = errors.New("registry: bad param")
	// ErrDuplicateTenant means two tenants share a name.
	ErrDuplicateTenant = errors.New("registry: duplicate tenant")
	// ErrDuplicateRoute means two analyses of one tenant resolve to the
	// same route name, which keys the route's results, its DataSpaces
	// descriptors and its codec stream.
	ErrDuplicateRoute = errors.New("registry: duplicate route")
	// ErrNoTransitFabric means a hybrid or in-transit analysis is
	// declared in a config whose fabric has zero staging buckets.
	ErrNoTransitFabric = errors.New("registry: hybrid analysis without transit fabric")
	// ErrNoTenants means the config declares no tenants at all.
	ErrNoTenants = errors.New("registry: config declares no tenants")
	// ErrNoAnalyses means a tenant declares an empty analysis list.
	ErrNoAnalyses = errors.New("registry: tenant declares no analyses")
)

// registryMu guards the package-level name → Info table.
var (
	registryMu sync.RWMutex
	byName     = make(map[string]Info)
)

// Register adds an analysis to the process-wide registry. It is meant
// to be called from init() functions — each analysis package (or the
// built-in table in this package) self-registers by name. Register
// panics on an empty or duplicate name and on an Info without a Build
// factory or Placements: a broken registration is a programming error,
// not a runtime condition.
func Register(name string, info Info) {
	if name == "" {
		panic("registry: Register with empty name")
	}
	if info.Build == nil {
		panic(fmt.Sprintf("registry: Register(%q) without a Build factory", name))
	}
	if len(info.Placements) == 0 {
		panic(fmt.Sprintf("registry: Register(%q) without Placements", name))
	}
	for _, pl := range info.Placements {
		if !pl.Valid() {
			panic(fmt.Sprintf("registry: Register(%q) with invalid placement %q", name, pl))
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("registry: duplicate Register(%q)", name))
	}
	byName[name] = info
}

// Lookup returns the registration for name.
func Lookup(name string) (Info, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	info, ok := byName[name]
	return info, ok
}

// Names returns every registered analysis name, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(byName))
	for name := range byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultPlacement returns the placement a config may omit for name:
// the single supported placement, or "" when the analysis supports
// several and the config must choose.
func DefaultPlacement(name string) Placement {
	info, ok := Lookup(name)
	if !ok || len(info.Placements) != 1 {
		return ""
	}
	return info.Placements[0]
}

// Check validates a (name, params) pair without building anything:
// the analysis must be registered, the placement supported, every
// non-zero parameter consumed by that placement, and the registered
// range check satisfied. It is pure — safe to run from Validate on a
// config that will never execute.
func Check(name string, p Params) error {
	info, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q (registered: %s)", ErrUnknownAnalysis, name, strings.Join(Names(), ", "))
	}
	if !p.Placement.Valid() {
		return fmt.Errorf("%w: %q for analysis %q", ErrBadPlacement, p.Placement, name)
	}
	supported := false
	for _, pl := range info.Placements {
		if pl == p.Placement {
			supported = true
			break
		}
	}
	if !supported {
		return fmt.Errorf("%w: analysis %q does not support placement %q (supported: %v)",
			ErrBadPlacement, name, p.Placement, info.Placements)
	}
	if stray := strayParams(p, info.Params[p.Placement]); len(stray) > 0 {
		return fmt.Errorf("%w: analysis %q placement %q does not consume %s",
			ErrConflictingParams, name, p.Placement, strings.Join(stray, ", "))
	}
	if p.Every < 0 {
		return fmt.Errorf("%w: analysis %q: negative cadence %d", ErrBadParam, name, p.Every)
	}
	if info.Check != nil {
		if err := info.Check(p); err != nil {
			return err
		}
	}
	return nil
}

// New checks the (name, params) pair and builds the configured
// analysis through the registered factory.
func New(name string, p Params) (core.Analysis, error) {
	if err := Check(name, p); err != nil {
		return nil, err
	}
	info, _ := Lookup(name)
	return info.Build(p)
}

// strayParams returns the JSON names of non-zero Params fields outside
// the allowed set. "placement" and "every" are consumed by the
// registry itself and always allowed.
func strayParams(p Params, allowed []string) []string {
	rv := reflect.ValueOf(p)
	rt := rv.Type()
	var stray []string
	for i := 0; i < rt.NumField(); i++ {
		name := jsonName(rt.Field(i))
		if name == "placement" || name == "every" {
			continue
		}
		if rv.Field(i).IsZero() {
			continue
		}
		ok := false
		for _, a := range allowed {
			if a == name {
				ok = true
				break
			}
		}
		if !ok {
			stray = append(stray, name)
		}
	}
	return stray
}

// jsonName extracts a struct field's JSON key.
func jsonName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if tag == "" {
		return f.Name
	}
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	return tag
}
