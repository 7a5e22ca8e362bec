package workload

import (
	"errors"
	"fmt"
	"strings"

	"insitu/internal/core"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// Fig. 4's point: of the four statistics stages (learn, derive, assess,
// test) only learn communicates, so the same model comes out whether
// the partial models are allreduced in situ or shipped, a few hundred
// bytes per rank, to a serial in-transit derive. RunFig4 runs both
// deployments and the in-situ assess & test stages on one pipeline.

// fig4Vars are the summarized variables: temperature and the fuel and
// ignition-marker species.
var fig4Vars = []string{"T", "Y_H2", "Y_OH"}

// Fig4Result holds both deployments' derived models and the assess and
// test stages' verdict, all from the last step.
type Fig4Result struct {
	Steps     int
	InSitu    map[string]stats.Derived // StatsInSitu: allreduce, derive on every rank
	Hybrid    map[string]stats.Derived // StatsHybrid: partial models derived in transit
	MoveBytes int64                    // the hybrid route's payload bytes
	RawBytes  int64                    // the summarized fields at full resolution
	Assess    *core.AssessTestResult   // T against the derived model, 3 sigma
}

// RunFig4 runs the simulation for `steps` steps with the in-situ and
// hybrid statistics routes over fig4Vars and the in-situ assess & test
// route, all due at the last step.
func RunFig4(simCfg sim.Config, steps int) (*Fig4Result, error) {
	p, err := core.NewPipeline(core.DefaultConfig(simCfg))
	if err != nil {
		return nil, err
	}
	insitu := &core.StatsInSitu{Vars: fig4Vars, EveryN: steps}
	hybrid := &core.StatsHybrid{Vars: fig4Vars, EveryN: steps}
	assess := &core.AssessTestInSitu{Sigma: 3, EveryN: steps}
	if err := errors.Join(p.Register(insitu), p.Register(hybrid), p.Register(assess)); err != nil {
		return nil, err
	}
	rep, err := p.Run(steps)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Steps:     steps,
		MoveBytes: rep.Metrics.Total(hybrid.Name()).MoveBytes,
		RawBytes:  int64(8 * len(fig4Vars) * simCfg.Global.Size()),
	}
	var ok [3]bool
	res.InSitu, ok[0] = rep.Result(insitu.Name(), steps).(map[string]stats.Derived)
	res.Hybrid, ok[1] = rep.Result(hybrid.Name(), steps).(map[string]stats.Derived)
	res.Assess, ok[2] = rep.Result(assess.Name(), steps).(*core.AssessTestResult)
	if ok != [3]bool{true, true, true} {
		return nil, fmt.Errorf("workload: step %d stored no statistics result (%v)", steps, ok)
	}
	return res, nil
}

// Format renders both deployments' models of every variable, the
// hybrid route's data reduction and the assess and test verdict.
func (r *Fig4Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "derived models at step %d (both deployments must agree):\n", r.Steps)
	fmt.Fprintf(&sb, "  %-6s %-8s %10s %14s %14s %14s %14s\n", "var", "", "n", "mean", "stddev", "skewness", "kurtosis")
	row := func(v, label string, d stats.Derived) {
		fmt.Fprintf(&sb, "  %-6s %-8s %10d %14.6g %14.6g %14.6g %14.6g\n",
			v, label, d.N, d.Mean, d.StdDev, d.Skewness, d.Kurtosis)
	}
	for _, v := range fig4Vars {
		row(v, "in-situ", r.InSitu[v])
		row(v, "hybrid", r.Hybrid[v])
	}
	fmt.Fprintf(&sb, "\nhybrid learn moved %d B; the raw fields are %d B (%.0fx reduction)\n",
		r.MoveBytes, r.RawBytes, float64(r.RawBytes)/float64(r.MoveBytes))
	a := r.Assess
	fmt.Fprintf(&sb, "assess: %d of %d %s values beyond 3 sigma of the global model\n", a.Extremes, a.Assessed, a.Var)
	verdict := "not rejected"
	if a.Test.Reject {
		verdict = "rejected"
	}
	fmt.Fprintf(&sb, "test:   Jarque-Bera statistic %.1f -> normality %s (flame temperatures are\n", a.Test.Statistic, verdict)
	sb.WriteString("        bimodal fuel/coflow mixtures, so rejection is the expected physics)\n")
	return sb.String()
}
