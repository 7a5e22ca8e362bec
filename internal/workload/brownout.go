package workload

import (
	"insitu/internal/core"
	"insitu/internal/registry"
)

// The brownout scenario is the overload-control soak: a fixed-seed
// slow-consumer schedule (a faults.SlowdownWindow collapsing every
// transfer's bandwidth by BrownoutFactor for a window of the run)
// drives the staging tier into sustained overload while the admission
// ladder, the per-route circuit breakers, and the credit account keep
// the simulation loop's per-step wall time bounded. After the window
// closes the half-open probes re-close the breakers and the ladder
// climbs back to full hybrid, rung by rung.
//
// All constants are exported so the soak test and BrownoutConfig —
// which examples/configs/brownout.json pins byte for byte — describe
// the identical configuration.
const (
	// BrownoutSteps is the length of the soak in simulation steps.
	BrownoutSteps = 60
	// BrownoutSeed fixes the injector PRNG (the schedule is pure
	// window, but the seed pins the decision sequence regardless).
	BrownoutSeed = 42
	// BrownoutFrom/BrownoutUntil bound the slowdown window in
	// decision-index space: roughly four healthy steps' worth of pulls
	// run first, then the window stays open until backlog pulls and
	// failed half-open probes have consumed it. The six-rung ladder
	// (full → delta → quantized → shaped → in-situ → shed) needs a
	// longer window than the original four-rung one: the byte-shrinking
	// rungs still submit tasks, so each extra descent costs the window
	// several pull decisions before pressure reaches the shed rung.
	BrownoutFrom  = 16
	BrownoutUntil = 48
	// BrownoutFactor multiplies every covered transfer's modeled
	// duration — a ~400x bandwidth collapse, the "slow consumer".
	BrownoutFactor = 400
	// BrownoutTimeScale converts modeled durations into real sleeps so
	// the collapse manifests as wall-clock staging latency the breaker
	// and estimator can observe.
	BrownoutTimeScale = 0.1
)

// NewBrownoutPipeline builds the brownout pipeline: a 2-rank
// simulation with the two hybrid routes (visualization, which shapes;
// statistics, which does not) over a 2-bucket staging tier with
// overload control enabled. With brownout=false it returns the
// unloaded twin — the identical pipeline without the fault schedule —
// whose per-step wall times are the soak's baseline.
//
// The second return value lists the hybrid route names.
//
// Since the registry refactor this is a thin wrapper over
// registry.Build(BrownoutConfig(brownout)): the tuning rationale lives
// with the config in configs.go, and the soak exercises the same
// construction path as `s3dpipe -config examples/configs/brownout.json`.
func NewBrownoutPipeline(brownout bool) (*core.Pipeline, []string, error) {
	b, err := registry.Build(BrownoutConfig(brownout))
	if err != nil {
		return nil, nil, err
	}
	return b.Pipeline, b.Tenants[0].Routes, nil
}
