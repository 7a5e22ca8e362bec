// Package workload defines the experiment configurations and runners
// that regenerate the paper's evaluation: Table I (core allocations,
// data sizes, simulation and I/O times), Table II (per-analysis
// in-situ / movement / in-transit costs), Fig. 1 (temporal-cadence
// feature tracking), and Fig. 6 (the per-step timing breakdown).
//
// The paper ran on 4896 and 9440 Jaguar cores over a 1600x1372x430
// grid. Those runs are reproduced at laptop scale with the geometry
// ratios preserved: the 9440-core configuration doubles the x-split of
// the simulation decomposition exactly as the paper does (16x28x10 ->
// 32x28x10), halving each rank's block, while the I/O rows are
// regenerated through the calibrated Lustre model (bp.LustreReadTime
// and bp.LustreWriteTime).
package workload

import (
	"time"

	"insitu/internal/grid"
	"insitu/internal/sim"
)

// PaperRef holds the published numbers a scenario is compared to.
type PaperRef struct {
	Cores        int
	SimRanks     int
	DSCores      int
	TransitCores int
	Volume       [3]int
	Variables    int
	DataGB       float64
	SimTime      time.Duration
	IORead       time.Duration
	IOWrite      time.Duration
}

// Scenario is one Table I configuration: a laptop-scale simulation
// whose shape mirrors one of the paper's runs. (Table II's pipeline is
// declared by examples/configs/table2-4896.json.)
type Scenario struct {
	Sim       sim.Config
	DSServers int
	Buckets   int
	Paper     PaperRef
}

// paper4896 and paper9440 are Table I's published rows.
var paper4896 = PaperRef{
	Cores: 4896, SimRanks: 4480, DSCores: 160, TransitCores: 256,
	Volume: [3]int{1600, 1372, 430}, Variables: 14, DataGB: 98.5,
	SimTime: 16850 * time.Millisecond,
	IORead:  6560 * time.Millisecond,
	IOWrite: 3280 * time.Millisecond,
}

var paper9440 = PaperRef{
	Cores: 9440, SimRanks: 8960, DSCores: 256, TransitCores: 224,
	Volume: [3]int{1600, 1372, 430}, Variables: 14, DataGB: 98.5,
	SimTime: 8420 * time.Millisecond,
	IORead:  6560 * time.Millisecond,
	IOWrite: 3280 * time.Millisecond,
}

// baseGrid is the laptop-scale domain: the paper's grid scaled by
// ~1/28 per dimension, keeping the aspect ratio of 1600x1372x430.
func baseGrid() grid.Box { return grid.NewBox(56, 48, 16) }

// simSubSteps makes the proxy's per-point step cost S3D-like (S3D's
// explicit RK substeps are dominated by chemistry), so the Table II
// in-situ-to-simulation ratios keep their shape.
const simSubSteps = 6

// Scenario4896 mirrors the 4896-core run: a 4x4x2 = 32-rank
// simulation decomposition (the paper's 16x28x10 = 4480 scaled to
// laptop size) with DataSpaces and staging cores in roughly the
// paper's proportion.
func Scenario4896() Scenario {
	cfg := sim.DefaultConfig(baseGrid(), 4, 4, 2)
	cfg.SubSteps = simSubSteps
	return Scenario{
		Sim:       cfg,
		DSServers: 2,
		Buckets:   2,
		Paper:     paper4896,
	}
}

// Scenario9440 mirrors the 9440-core run: the x-split of the
// simulation decomposition doubles (paper: 16x28x10 -> 32x28x10),
// halving each rank's block.
func Scenario9440() Scenario {
	cfg := sim.DefaultConfig(baseGrid(), 8, 4, 2)
	cfg.SubSteps = simSubSteps
	return Scenario{
		Sim:       cfg,
		DSServers: 2,
		Buckets:   2,
		Paper:     paper9440,
	}
}

// TableIIRef holds one published Table II row (4896 cores, per
// simulation time step) for shape comparison.
type TableIIRef struct {
	InSitu     time.Duration
	Movement   time.Duration
	MovementMB float64
	InTransit  time.Duration
}

// PaperTableIIRows maps the analysis names used by this library to the
// paper's measurements.
func PaperTableIIRows() map[string]TableIIRef {
	return map[string]TableIIRef{
		"in-situ visualization": {
			InSitu: 730 * time.Millisecond,
		},
		"in-situ descriptive statistics": {
			InSitu: 1640 * time.Millisecond,
		},
		"hybrid visualization": {
			InSitu: 80 * time.Millisecond, Movement: 92 * time.Millisecond,
			MovementMB: 49.19, InTransit: 5060 * time.Millisecond,
		},
		"hybrid topology": {
			InSitu: 2720 * time.Millisecond, Movement: 2060 * time.Millisecond,
			MovementMB: 87.02, InTransit: 119810 * time.Millisecond,
		},
		"hybrid descriptive statistics": {
			InSitu: 1690 * time.Millisecond, Movement: 60 * time.Millisecond,
			MovementMB: 13.30, InTransit: 10 * time.Millisecond,
		},
	}
}
