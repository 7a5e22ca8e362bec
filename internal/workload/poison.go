package workload

import (
	"errors"
	"sync/atomic"

	"insitu/internal/core"
	"insitu/internal/registry"
)

// PoisonRouteName is the analysis name the quarantine soak watches.
const PoisonRouteName = "poison"

// init registers the poison drill analysis, demonstrating that
// analysis registration is open to any package, not just the built-in
// catalog: examples/configs/tenants.json names "poison" like any other
// analysis.
func init() {
	registry.Register(PoisonRouteName, registry.Info{
		Doc:        "drill route whose in-transit handler fails its first fail_attempts executions",
		Placements: []registry.Placement{registry.PlaceHybrid},
		Params: map[registry.Placement][]string{
			registry.PlaceHybrid: {"fail_attempts"},
		},
		Build: func(p registry.Params) (core.Analysis, error) {
			return &poisonAnalysis{FailAttempts: int64(p.FailAttempts)}, nil
		},
	})
}

// poisonAnalysis is the tenants drill's poison route: the in-transit
// handler fails its first FailAttempts executions and succeeds
// afterwards, so the open -> probe -> release cycle is deterministic
// regardless of how long each result takes to drain.
type poisonAnalysis struct {
	FailAttempts int64
	attempts     atomic.Int64
}

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
