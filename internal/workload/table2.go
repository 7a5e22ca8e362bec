package workload

import (
	"fmt"
	"strings"
	"time"

	"insitu/internal/core"
	"insitu/internal/metrics"
	"insitu/internal/registry"
)

// TableIIRow is one analysis row of Table II: measured per-step
// breakdown plus the paper's published values.
type TableIIRow struct {
	Analysis string
	Measured metrics.Breakdown
	Paper    TableIIRef
	HasPaper bool
}

// TableIIResult bundles the rows with the run's simulation time, so
// percent-of-simulation figures (Fig. 6's headline claims) can be
// derived.
type TableIIResult struct {
	Rows       []TableIIRow
	SimPerStep time.Duration
	PaperSim   time.Duration
}

// RunTableII runs a loaded table2 config (examples/configs/
// table2-4896.json: the five paper analyses plus the three extensions
// on the 4896-core run's decomposition) for the given number of steps
// and collects the Table II breakdown of its first tenant, beside the
// paper's sim time for the Table I column the config's name keys.
func RunTableII(cfg *registry.Config, steps int) (*TableIIResult, error) {
	b, err := registry.Build(cfg)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	reps, err := b.Run(steps, core.RunFresh)
	if err != nil {
		return nil, err
	}
	rep := reps[b.Tenants[0].Name]
	res := &TableIIResult{PaperSim: paperTableI[cfg.Name].SimTime}
	_, res.SimPerStep, _ = rep.Metrics.SimTime()
	for _, name := range rep.Metrics.Analyses() {
		row := TableIIRow{Analysis: name, Measured: rep.Metrics.Total(name).PerStep()}
		if ref, ok := paperTableII[name]; ok {
			row.Paper = ref
			row.HasPaper = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the result in the layout of the paper's Table II,
// with the paper's numbers bracketed for comparison.
func (r *TableIIResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "simulation time per step: %.4fs [paper %.2fs]\n\n",
		r.SimPerStep.Seconds(), r.PaperSim.Seconds())
	fmt.Fprintf(&sb, "%-42s %24s %24s %20s %26s\n",
		"analysis", "in-situ (s)", "movement (s)", "moved (MB)", "in-transit (s)")
	for _, row := range r.Rows {
		m := row.Measured
		mb := float64(m.MoveBytes) / 1e6
		if row.HasPaper {
			p := row.Paper
			fmt.Fprintf(&sb, "%-42s %12.4f [%8.2f] %12.4f [%8.3f] %8.3f [%8.2f] %12.4f [%10.2f]\n",
				row.Analysis,
				m.InSitu.Seconds(), p.InSitu.Seconds(),
				m.MoveModeled.Seconds(), p.Movement.Seconds(),
				mb, p.MovementMB,
				m.InTransit.Seconds(), p.InTransit.Seconds())
		} else {
			fmt.Fprintf(&sb, "%-42s %12.4f %11s %12.4f %11s %8.3f %11s %12.4f\n",
				row.Analysis,
				m.InSitu.Seconds(), "",
				m.MoveModeled.Seconds(), "",
				mb, "",
				m.InTransit.Seconds())
		}
	}
	return sb.String()
}

// Fig6Bar is one bar of the Fig. 6 timing breakdown: a named quantity
// expressed both in absolute time and as a fraction of the simulation
// step.
type Fig6Bar struct {
	Label     string
	Time      time.Duration
	OfSimStep float64 // fraction of the per-step simulation time
}

// Fig6Series derives the Fig. 6 presentation from a Table II result:
// per-analysis in-situ, movement, and in-transit bars alongside the
// simulation bar.
func (r *TableIIResult) Fig6Series() []Fig6Bar {
	out := []Fig6Bar{{Label: "simulation", Time: r.SimPerStep, OfSimStep: 1}}
	frac := func(d time.Duration) float64 {
		if r.SimPerStep <= 0 {
			return 0
		}
		return d.Seconds() / r.SimPerStep.Seconds()
	}
	for _, row := range r.Rows {
		m := row.Measured
		out = append(out, Fig6Bar{
			Label: row.Analysis + " (in-situ)", Time: m.InSitu, OfSimStep: frac(m.InSitu),
		})
		if m.MoveBytes > 0 {
			out = append(out,
				Fig6Bar{Label: row.Analysis + " (movement)", Time: m.MoveModeled, OfSimStep: frac(m.MoveModeled)},
				Fig6Bar{Label: row.Analysis + " (in-transit)", Time: m.InTransit, OfSimStep: frac(m.InTransit)},
			)
		}
	}
	return out
}

// FormatFig6 renders the series as rows with a text bar chart.
func FormatFig6(bars []Fig6Bar) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-58s %14s %10s  %s\n", "component", "time", "% of sim", "")
	for _, b := range bars {
		n := int(b.OfSimStep * 50)
		if n > 60 {
			n = 60
		}
		fmt.Fprintf(&sb, "%-58s %14s %9.2f%%  %s\n",
			b.Label, b.Time.Round(time.Microsecond), 100*b.OfSimStep, strings.Repeat("#", n))
	}
	return sb.String()
}
