package overload

import "errors"

// ErrQuarantined is the typed fail-fast returned (wrapped) when a named
// tenant's route is quarantined: the route has produced poison tasks —
// tasks that crash their bucket or dead-letter — often enough that
// admitting more of them would burn shared staging capacity (bucket
// respawns, retries, credits) for every tenant.
var ErrQuarantined = errors.New("overload: route quarantined")

// QuarantineConfig tunes the poison-route quarantine: the poison
// breaker NewPoisonBreaker gives each named tenant's route. It is also
// the "fabric.quarantine" block of a pipeline config, hence the json
// tags.
type QuarantineConfig struct {
	// Strikes is the consecutive poison-disposition count (dead-letter
	// or errored final result) that quarantines a route (default 3).
	Strikes int `json:"strikes,omitempty"`
	// ProbeAfter is how many admission denials an open route absorbs
	// before it is allowed one half-open probe (default 4). Denials are
	// the deterministic stand-in for a cooldown clock: one denial per
	// step the route would have submitted.
	ProbeAfter int `json:"probe_after,omitempty"`
}

func (c QuarantineConfig) withDefaults() QuarantineConfig {
	if c.Strikes <= 0 {
		c.Strikes = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 4
	}
	return c
}
