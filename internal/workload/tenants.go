package workload

import (
	"errors"
	"sync/atomic"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// The tenants scenario is the multi-tenant staging-fabric soak: three
// tenant simulations time-multiplex one scheduler (one DataSpaces
// queue, one bucket pool, one interconnect). Two tenants — alpha and
// beta, the victims — run the healthy hybrid routes. The third, gamma,
// is the noisy neighbor twice over: a seeded slowdown window collapses
// the bandwidth of every transfer touching gamma's rank endpoints (so
// gamma's pulls hold shared buckets for ~400x longer), and gamma's
// extra "poison" analysis crashes its in-transit handler until the
// quarantine's strike budget is spent. The fabric must hold the
// bulkheads: victims keep stepping at solo pace, the poison route is
// quarantined and later released by a half-open probe, the autoscaler
// widens the bucket pool under pressure, and nothing leaks.
//
// All constants are exported so the soak test and TenantsConfig —
// which examples/configs/tenants.json pins byte for byte — describe the
// identical configuration.
const (
	// TenantSteps is the length of the soak in simulation steps.
	TenantSteps = 40
	// TenantSeed fixes the injector PRNG.
	TenantSeed = 7
	// TenantSlowFrom/TenantSlowUntil bound gamma's slowdown window in
	// decision-index space. A full noisy run consumes roughly 500
	// injector decisions (three tenants' pulls share one counter), so
	// this window opens after the fabric has warmed up and closes with
	// a comfortable tail for recovery: ladders climb back to full, the
	// autoscaler observes idleness, and the quarantine probe heals.
	TenantSlowFrom  = 100
	TenantSlowUntil = 300
	// TenantSlowFactor multiplies the modeled duration of every covered
	// transfer — the same ~400x collapse the brownout soak uses, but
	// scoped to gamma's endpoints only.
	TenantSlowFactor = 400
	// TenantTimeScale converts modeled durations into real sleeps so
	// the collapse manifests as wall-clock staging latency.
	TenantTimeScale = 0.1
	// TenantPoisonFails is how many in-transit attempts gamma's poison
	// handler fails before healing. Equal to the quarantine's strike
	// budget, so the route opens on exactly the strike budget and the
	// first half-open probe heals it.
	TenantPoisonFails = 2
)

// TenantVictims are the victim tenants; TenantNoisy is the neighbor.
var (
	TenantVictims = []string{"alpha", "beta"}
	TenantNoisy   = "gamma"
)

// poisonAnalysis is gamma's poison route: the in-transit handler fails
// its first FailAttempts executions and succeeds afterwards, so the
// open -> probe -> release cycle is deterministic regardless of how
// long each result takes to drain.
type poisonAnalysis struct {
	FailAttempts int64
	attempts     atomic.Int64
}

// PoisonRouteName is the analysis name the quarantine soak watches.
const PoisonRouteName = "poison"

func (p *poisonAnalysis) Name() string { return PoisonRouteName }
func (p *poisonAnalysis) Every() int   { return 1 }

func (p *poisonAnalysis) InSituStage(ctx *core.Ctx) ([]byte, error) {
	return []byte{byte(ctx.Step), byte(ctx.Comm.ID())}, nil
}

func (p *poisonAnalysis) InTransit(step int, payloads [][]byte) (any, error) {
	if p.attempts.Add(1) <= p.FailAttempts {
		return nil, errors.New("poison: handler crash")
	}
	return step, nil
}

// NewTenantScheduler builds the multi-tenant soak: victims alpha and
// beta run the two healthy hybrid routes (visualization + statistics)
// and the gamma tenant runs visualization plus the poison route, all
// over a shared 2..4-bucket autoscaled staging tier with per-tenant
// credit floors and DRR dequeue. With noisy=true gamma misbehaves:
// its poison handler crashes through the quarantine strike budget and
// the seeded slowdown window is installed over its rank endpoints.
// With noisy=false it returns the identical healthy twin — same three
// tenants, same routes, no fault schedule, a poison handler that
// never crashes — whose per-step wall times are the soak's baseline:
// the twin isolates the injected noise from the mere CPU cost of
// co-tenancy, which the bulkheads do not (and cannot) remove.
//
// The second return value lists the victims' hybrid route names.
//
// Since the registry refactor this is a thin wrapper over
// registry.Build(TenantsConfig(noisy)): the fabric tuning lives with
// the config in configs.go, the slowdown window is scoped to gamma's
// rank endpoints by the registry's tenant-resolved fault install, and
// the soak exercises the same construction path as
// `s3dpipe -config examples/configs/tenants.json`.
func NewTenantScheduler(noisy bool) (*core.Scheduler, []string, error) {
	b, err := registry.Build(TenantsConfig(noisy))
	if err != nil {
		return nil, nil, err
	}
	return b.Scheduler, b.Tenants[0].Routes, nil
}
