// Quickstart: the smallest complete use of the hybrid framework.
//
// It runs the S3D proxy on 8 ranks for 5 steps with two analyses
// attached — hybrid descriptive statistics (learn in-situ, derive
// in-transit) and hybrid merge-tree topology — then prints the derived
// temperature statistics, the extracted features, and the Table II
// style cost breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

func main() {
	// 1. Describe the simulation: a 32x24x12 lifted-jet proxy
	//    decomposed over 2x2x2 = 8 ranks.
	simCfg := sim.DefaultConfig(grid.NewBox(32, 24, 12), 2, 2, 2)

	// 2. Build the pipeline: DataSpaces shards + staging buckets form
	//    the secondary resource.
	cfg := core.DefaultConfig(simCfg)
	cfg.DSServers, cfg.Buckets = 2, 2
	p, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Register analyses. Hybrid analyses split into an in-situ
	//    stage (per rank, data-parallel) and an in-transit stage
	//    (serial, on a staging bucket).
	p.Register(&core.StatsHybrid{})
	topo := core.NewTopologyHybrid()
	topo.SimplifyEps = 0.05      // prune low-persistence noise
	topo.FeatureThreshold = 1.05 // extract hot features
	p.Register(topo)

	// 4. Run. The call returns when the simulation is done and every
	//    in-transit task has drained.
	const steps = 5
	rep, err := p.Run(steps)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Consume results.
	derived := rep.Result("hybrid descriptive statistics", steps).(map[string]stats.Derived)
	t := derived["T"]
	fmt.Printf("temperature after %d steps: n=%d range=[%.3f, %.3f] mean=%.3f stddev=%.3f\n",
		steps, t.N, t.Min, t.Max, t.Mean, t.StdDev)

	tr := rep.Result("hybrid topology", steps).(*core.TopologyResult)
	fmt.Printf("merge tree: %d maxima after simplification, %d features above %.2f\n",
		len(tr.Tree.Maxima()), len(tr.Features), topo.FeatureThreshold)
	fmt.Printf("streaming aggregation: %d vertices streamed, peak resident %d\n\n",
		tr.Stream.Declared, tr.Stream.PeakLive)

	fmt.Println(rep.Metrics.TableII())
}
