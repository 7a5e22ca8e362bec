// Statistics: the four-stage Learn / Derive / Assess / Test pattern of
// the paper's Fig. 4, in both deployment modes.
//
// Learn is the only stage that communicates. The fully in-situ variant
// allreduces partial models so every rank holds the consistent global
// model; the hybrid variant ships each rank's partial model (a few
// hundred bytes) to a serial in-transit stage that aggregates and
// derives. Assess and test then run against the derived model: here we
// standardize the temperature field, flag extreme values, and run the
// Jarque–Bera normality test.
//
//	go run ./examples/statistics
package main

import (
	"fmt"
	"log"
	"sync"

	"insitu/internal/grid"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

func main() {
	cfg := sim.DefaultConfig(grid.NewBox(40, 28, 12), 2, 2, 1)
	cfg.KernelRate = 1.0
	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const steps = 15
	var mu sync.Mutex
	var partials [][]byte           // hybrid path: marshalled per-rank models
	var insituModels []*stats.Model // in-situ path: one consistent model per rank
	var localData = map[int][]float64{}

	err = sim.RunAll(s, func(rk *sim.Rank) error {
		rk.RunSteps(steps)

		// LEARN (in-situ, per rank, no communication yet).
		local := stats.NewModel()
		for _, v := range []string{"T", "Y_H2", "Y_OH"} {
			local.LearnField(rk.Field(v))
		}

		// Fully in-situ deployment: allreduce to a consistent global
		// model on every rank; derive locally.
		global := stats.ParallelLearn(rk.Comm(), local)

		// Hybrid deployment: ship the partial model instead.
		mu.Lock()
		insituModels = append(insituModels, global)
		partials = append(partials, local.Marshal())
		localData[rk.Comm().ID()] = rk.Field("T").Data
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// DERIVE in-transit (hybrid): a single serial aggregation.
	hybridModel := stats.NewModel()
	if err := stats.AggregateSerial(hybridModel, partials); err != nil {
		log.Fatal(err)
	}
	hybrid := stats.Derive(hybridModel.Var("T"))
	insitu := stats.Derive(insituModels[0].Var("T"))

	fmt.Println("derived temperature statistics (both deployments must agree):")
	fmt.Printf("  %-8s %12s %12s %12s %12s %12s\n", "", "n", "mean", "stddev", "skewness", "kurtosis")
	fmt.Printf("  %-8s %12d %12.5f %12.5f %12.5f %12.5f\n",
		"in-situ", insitu.N, insitu.Mean, insitu.StdDev, insitu.Skewness, insitu.Kurtosis)
	fmt.Printf("  %-8s %12d %12.5f %12.5f %12.5f %12.5f\n\n",
		"hybrid", hybrid.N, hybrid.Mean, hybrid.StdDev, hybrid.Skewness, hybrid.Kurtosis)

	hybridBytes := 0
	for _, p := range partials {
		hybridBytes += len(p)
	}
	raw := hybrid.N * 8 * 3
	fmt.Printf("hybrid learn moved %d bytes; the raw data is %d bytes (%.0fx reduction)\n\n",
		hybridBytes, raw, float64(raw)/float64(hybridBytes))

	// ASSESS: standardize rank 0's block against the global model and
	// flag observations beyond 3 sigma (candidate ignition kernels).
	assessed := stats.Assess(localData[0], hybrid, 3)
	extremes := 0
	for _, a := range assessed {
		if a.Extreme {
			extremes++
		}
	}
	fmt.Printf("assess: %d of %d rank-0 temperatures beyond 3 sigma of the global model\n",
		extremes, len(assessed))

	// TEST: Jarque–Bera normality.
	jb := stats.JarqueBera(hybrid)
	verdict := "not rejected"
	if jb.Reject {
		verdict = "rejected"
	}
	fmt.Printf("test:   Jarque–Bera statistic %.1f -> normality %s (flame temperatures are\n", jb.Statistic, verdict)
	fmt.Println("        bimodal fuel/coflow mixtures, so rejection is the expected physics)")
}
