package core

import (
	"fmt"

	"insitu/internal/bufpool"
	"insitu/internal/stats"
)

// ContingencyHybrid computes a bivariate contingency table between two
// simulation variables in the hybrid decomposition: per-rank tables
// in-situ (no communication), cellwise combination and the
// information-theoretic derive (entropies, mutual information,
// chi-squared independence test) in-transit. It deploys the parallel
// contingency statistics of Pébay, Thompson & Bennett (CLUSTER 2010),
// part of the statistics toolkit the paper's §III builds on.
type ContingencyHybrid struct {
	// VarX and VarY are the paired variables (defaults "T", "Y_OH").
	VarX, VarY string
	// XBins x YBins cells (default 16x16) over contingencyXRange x
	// contingencyYRange.
	XBins, YBins int
	EveryN       int
}

// contingencyXRange and contingencyYRange are the value ranges the
// table's cells cover: the proxy's physical ranges of T and Y_OH.
var (
	contingencyXRange = [2]float64{0, 2.5}
	contingencyYRange = [2]float64{0, 0.3}
)

// Name implements Analysis.
func (c *ContingencyHybrid) Name() string { return "hybrid contingency statistics" }

// Every implements Analysis.
func (c *ContingencyHybrid) Every() int { return c.EveryN }

func (c *ContingencyHybrid) params() (string, string, int, int) {
	vx, vy := c.VarX, c.VarY
	if vx == "" {
		vx = "T"
	}
	if vy == "" {
		vy = "Y_OH"
	}
	xb, yb := c.XBins, c.YBins
	if xb < 1 {
		xb = 16
	}
	if yb < 1 {
		yb = 16
	}
	return vx, vy, xb, yb
}

const contingencyTableKey = "contingency.table"

// InSituStage implements HybridAnalysis: the communication-free learn,
// into the rank's table in Ctx.State (Reset first), packed into a
// pooled buffer.
func (c *ContingencyHybrid) InSituStage(ctx *Ctx) ([]byte, error) {
	vx, vy, xb, yb := c.params()
	xr, yr := contingencyXRange, contingencyYRange
	fx := ctx.Sim.GhostedField(vx)
	fy := ctx.Sim.GhostedField(vy)
	if fx == nil || fy == nil {
		return nil, fmt.Errorf("contingency: unknown variable %q or %q", vx, vy)
	}
	tab, ok := ctx.State[contingencyTableKey].(*stats.Contingency)
	if !ok {
		var err error
		if tab, err = stats.NewContingency(xr[0], xr[1], xb, yr[0], yr[1], yb); err != nil {
			return nil, err
		}
		ctx.State[contingencyTableKey] = tab
	}
	tab.Reset()
	if err := tab.UpdateBoxParallel(fx, fy, ctx.Owned); err != nil {
		return nil, err
	}
	return tab.AppendMarshal(bufpool.Get(tab.MarshalSize())[:0]), nil
}

// ContingencyResult is the in-transit output.
type ContingencyResult struct {
	VarX, VarY string
	Derived    stats.ContingencyDerived
	Table      *stats.Contingency
}

// InTransit implements HybridAnalysis: combine and derive, serially.
func (c *ContingencyHybrid) InTransit(step int, payloads [][]byte) (any, error) {
	var global *stats.Contingency
	for i, p := range payloads {
		tab, err := stats.UnmarshalContingency(p)
		if err != nil {
			return nil, fmt.Errorf("contingency: payload %d: %w", i, err)
		}
		if global == nil {
			global = tab
			continue
		}
		if err := global.Combine(tab); err != nil {
			return nil, err
		}
	}
	if global == nil {
		return nil, fmt.Errorf("contingency: no payloads")
	}
	vx, vy, _, _ := c.params()
	return &ContingencyResult{VarX: vx, VarY: vy, Derived: global.Derive(), Table: global}, nil
}
