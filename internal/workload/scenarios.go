// Package workload holds the runners that regenerate the paper's
// evaluation on the pipeline itself: Table I (core allocations, data
// sizes, simulation and checkpoint I/O times), Table II (per-analysis
// in-situ / movement / in-transit costs), Fig. 1 (temporal-cadence
// feature tracking), Fig. 2 (in-situ vs hybrid rendering), Fig. 4 (the
// four-stage statistics pattern) and Fig. 6 (the per-step timing
// breakdown).
//
// The paper ran on 4896 and 9440 Jaguar cores over a 1600x1372x430
// grid. examples/configs/table2-4896.json and table2-9440.json
// reproduce those runs at laptop scale with the geometry ratios
// preserved (the grid scaled by ~1/28 per dimension, a 4x4x2 rank
// split for the paper's 16x28x10), while the paper-scale I/O rows are
// regenerated through the calibrated Lustre model (bp.LustreReadTime
// and bp.LustreWriteTime).
package workload

import "time"

// PaperRef holds the published numbers a Table I column is compared
// to.
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

// paperTableI holds Table I's published columns, each keyed by the
// name of the config that mirrors its run: table2-9440.json doubles
// the x-split of table2-4896.json exactly as the paper does (16x28x10
// -> 32x28x10), halving each rank's block.
var paperTableI = map[string]PaperRef{
	"table2-4896": {
		Cores: 4896, SimRanks: 4480, DSCores: 160, TransitCores: 256,
		Volume: [3]int{1600, 1372, 430}, Variables: 14, DataGB: 98.5,
		SimTime: 16850 * time.Millisecond,
		IORead:  6560 * time.Millisecond,
		IOWrite: 3280 * time.Millisecond,
	},
	"table2-9440": {
		Cores: 9440, SimRanks: 8960, DSCores: 256, TransitCores: 224,
		Volume: [3]int{1600, 1372, 430}, Variables: 14, DataGB: 98.5,
		SimTime: 8420 * time.Millisecond,
		IORead:  6560 * time.Millisecond,
		IOWrite: 3280 * time.Millisecond,
	},
}

// TableIIRef holds one published Table II row (4896 cores, per
// simulation time step) for shape comparison.
type TableIIRef struct {
	InSitu     time.Duration
	Movement   time.Duration
	MovementMB float64
	InTransit  time.Duration
}

// paperTableII maps the analysis names used by this library to the
// paper's measurements.
var paperTableII = map[string]TableIIRef{
	"in-situ visualization":          {InSitu: 730 * time.Millisecond},
	"in-situ descriptive statistics": {InSitu: 1640 * time.Millisecond},
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
