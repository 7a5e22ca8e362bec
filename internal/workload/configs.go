// The fixed-seed acceptance scenarios exist twice on purpose: as
// declarative registry.Configs (BrownoutConfig, TenantsConfig — the
// source of truth the checked-in examples/configs files pin byte for
// byte) and as the constructors the soaks call (NewBrownoutPipeline,
// NewTenantScheduler) — which since the registry refactor just Build
// the config, so `s3dpipe -config` and the soak tests are literally
// the same construction code.
package workload

import (
	"insitu/internal/core"
	"insitu/internal/registry"
)

// init registers the poison drill analysis, demonstrating that
// analysis registration is open to any package, not just the built-in
// catalog: the tenants scenario's config names "poison" like any other
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

// scenarioOverload is the shared admission-plane tuning of both
// soaks: latency-sensitive breakers, a fast ladder, and a
// modeled-duration probe verdict that separates healthy from
// browned-out deterministically.
func scenarioOverload() *registry.OverloadConfig {
	return &registry.OverloadConfig{
		Breaker: registry.BreakerConfig{
			FailureThreshold: 3,
			// Two browned-out task completions push the success-latency
			// EWMA over the threshold and trip the route open.
			LatencyThresholdUS: 5000,
			LatencyAlpha:       0.5,
			// Short cooldown relative to the step cadence, so the
			// half-open probe runs nearly every step while open.
			CooldownUS: 2000,
		},
		Ladder: registry.LadderConfig{
			QueueHigh: 3, QueueLow: 1,
			// Latency watermarks stay disabled: the latency EWMA only
			// moves when tasks complete, so a shedding route would pin
			// it high and never observe recovery. Breaker state,
			// credit availability and queue depth are live signals.
			DegradeAfter: 1, RecoverAfter: 2,
		},
		QueueBound: 4,
		// The probe verdict compares the *modeled* probe duration:
		// healthy ~1.5us, browned-out ~400x that. 50us separates them
		// deterministically, independent of scheduler noise.
		ProbeLatencyMaxUS: 50,
	}
}

// scenarioSim is both soaks' 2-rank simulation in config form.
func scenarioSim() registry.SimConfig {
	return registry.SimConfig{
		NX: 24, NY: 16, NZ: 8,
		PX: 2, PY: 1, PZ: 1,
		SubSteps: 4,
	}
}

// scenarioAnalyses is the healthy hybrid route pair both soaks run:
// visualization (which shapes) and statistics (which does not).
func scenarioAnalyses() []registry.AnalysisConfig {
	return []registry.AnalysisConfig{
		{Analysis: "viz", Params: registry.Params{
			Placement: registry.PlaceHybrid, Width: 20, Height: 16, Factor: 2,
		}},
		{Analysis: "stats", Params: registry.Params{
			Placement: registry.PlaceHybrid, Vars: []string{"T", "P"},
		}},
	}
}

// BrownoutConfig is the brownout soak as a declarative pipeline
// config. With brownout=false it describes the unloaded twin: the
// identical pipeline without the fault schedule.
func BrownoutConfig(brownout bool) *registry.Config {
	buckets := 2
	cfg := &registry.Config{
		Name:  "brownout",
		Steps: BrownoutSteps,
		Fabric: registry.FabricConfig{
			DSServers: 2,
			Buckets:   &buckets,
			Net:       registry.NetConfig{Profile: "gemini", TimeScale: BrownoutTimeScale},
		},
		Tenants: []registry.TenantConfig{{
			Sim:          scenarioSim(),
			StepBudgetMS: 500,
			Overload:     scenarioOverload(),
			Analyses:     scenarioAnalyses(),
		}},
	}
	if brownout {
		cfg.Faults = &registry.FaultsConfig{
			Seed: BrownoutSeed,
			Slowdowns: []registry.SlowdownConfig{
				{From: BrownoutFrom, Until: BrownoutUntil, Factor: BrownoutFactor},
			},
		}
	}
	return cfg
}

// TenantsConfig is the multi-tenant noisy-neighbor soak as a
// declarative pipeline config. With noisy=false it describes the
// healthy twin: same three tenants and routes, a poison handler that
// never crashes, no fault schedule.
func TenantsConfig(noisy bool) *registry.Config {
	buckets := 2
	fails := 0
	if noisy {
		fails = TenantPoisonFails
	}
	tenant := func(name string, analyses []registry.AnalysisConfig) registry.TenantConfig {
		return registry.TenantConfig{
			Name:         name,
			Sim:          scenarioSim(),
			StepBudgetMS: 500,
			Overload:     scenarioOverload(),
			Analyses:     analyses,
		}
	}
	gammaAnalyses := []registry.AnalysisConfig{
		scenarioAnalyses()[0],
		{Analysis: PoisonRouteName, Params: registry.Params{
			Placement: registry.PlaceHybrid, FailAttempts: fails,
		}},
	}
	cfg := &registry.Config{
		Name:  "tenants",
		Steps: TenantSteps,
		Fabric: registry.FabricConfig{
			DSServers:     2,
			Buckets:       &buckets,
			MaxBuckets:    4,
			Net:           registry.NetConfig{Profile: "gemini", TimeScale: TenantTimeScale},
			QueueBound:    4,
			TenantReserve: 2,
			Autoscale: &registry.AutoscaleConfig{
				Min: 2, Max: 4,
				QueueHighPerBucket: 2,
				GrowAfter:          2,
				ShrinkAfter:        3,
			},
			Quarantine: &registry.QuarantineConfig{Strikes: TenantPoisonFails, ProbeAfter: 2},
		},
		Tenants: []registry.TenantConfig{
			tenant(TenantVictims[0], scenarioAnalyses()),
			tenant(TenantVictims[1], scenarioAnalyses()),
			tenant(TenantNoisy, gammaAnalyses),
		},
	}
	if noisy {
		cfg.Faults = &registry.FaultsConfig{
			Seed: TenantSeed,
			Slowdowns: []registry.SlowdownConfig{
				{From: TenantSlowFrom, Until: TenantSlowUntil, Tenant: TenantNoisy, Factor: TenantSlowFactor},
			},
		}
	}
	return cfg
}
