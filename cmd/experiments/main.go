// Command experiments regenerates every table and figure of the
// paper's evaluation section at laptop scale:
//
//	experiments -table1   core allocations, data size, sim + I/O times, post-processing
//	experiments -table2   per-analysis in-situ/movement/in-transit costs
//	experiments -fig1     feature tracking vs analysis cadence
//	experiments -fig2     in-situ vs hybrid rendering (writes PNGs)
//	experiments -fig3     merge-tree/segmentation correspondence
//	experiments -fig4     learn/derive/assess/test statistics, in situ and hybrid
//	experiments -fig6     per-step timing breakdown
//	experiments -all      everything
//
// Published paper values are printed in brackets next to the measured
// ones; absolute times differ (this runs on one machine, not 4896
// Jaguar cores) but the shape — who is cheap, who is expensive, what
// moves how much data — reproduces.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so tests
// drive it in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1 = fs.Bool("table1", false, "reproduce Table I")
		table2 = fs.Bool("table2", false, "reproduce Table II")
		fig1   = fs.Bool("fig1", false, "reproduce the Fig. 1 tracking experiment")
		fig2   = fs.Bool("fig2", false, "reproduce the Fig. 2 rendering comparison")
		fig3   = fs.Bool("fig3", false, "reproduce the Fig. 3 merge-tree/segmentation example")
		fig4   = fs.Bool("fig4", false, "reproduce the Fig. 4 four-stage statistics")
		fig6   = fs.Bool("fig6", false, "reproduce the Fig. 6 breakdown")
		all    = fs.Bool("all", false, "run everything")
		steps  = fs.Int("steps", 4, "simulation steps per measurement")
		outdir = fs.String("outdir", "", "directory for generated files, created if missing (default: a new temporary directory)")
	)
	if fs.Parse(args) != nil {
		return 2 // Parse has printed the error and the usage
	}
	if *all {
		*table1, *table2, *fig1, *fig2, *fig3, *fig4, *fig6 = true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig1 && !*fig2 && !*fig3 && !*fig4 && !*fig6 {
		fs.Usage()
		return 2
	}
	// In the paper's order; the first failure stops the rest.
	var err error
	if *outdir != "" {
		err = os.MkdirAll(*outdir, 0o755)
	}
	do := func(on bool, experiment func() error) {
		if on && err == nil {
			err = experiment()
		}
	}
	do(*table1, func() error { return runTable1(stdout, *steps, *outdir) })
	do(*table2 || *fig6, func() error { return runTable2(stdout, *steps, *table2, *fig6) })
	do(*fig1, func() error { return runFig1(stdout, *steps) })
	do(*fig2, func() error { return runFig2(stdout, *outdir) })
	do(*fig3, func() error { runFig3(stdout); return nil })
	do(*fig4, func() error { return runFig4(stdout) })
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// runFig3 reproduces the paper's Fig. 3: a 2-D function whose merge
// tree encodes the merging of contours as the isovalue is lowered,
// with branches corresponding to regions in the domain.
func runFig3(out io.Writer) {
	fmt.Fprintln(out, "=== Figure 3: merge tree <-> segmentation correspondence (2-D example) ===")
	b := grid.NewBox(24, 12, 1)
	f := grid.NewField("h", b)
	// Two hills of different heights over a sloping plain.
	for idx := range f.Data {
		i, j, _ := b.Point(idx)
		x, y := float64(i), float64(j)
		h := 0.05 * (24 - x) / 24
		h += 1.0 * gauss(x, y, 6, 6, 2.6)
		h += 0.7 * gauss(x, y, 17, 5, 2.2)
		f.Data[idx] = h
	}
	tr := mergetree.FromField(f, b)
	red := mergetree.Reduce(tr, nil)
	branches := mergetree.BranchDecomposition(red)
	fmt.Fprintf(out, "merge tree: %d maxima, %d saddles\n", len(tr.Maxima()), len(tr.Saddles()))
	for _, br := range branches {
		x, y, _ := grid.GlobalPoint(b, red.IDs[br.Max])
		if br.Saddle >= 0 {
			fmt.Fprintf(out, "  branch: max %.3f at (%d,%d) merges at saddle %.3f (persistence %.3f)\n",
				red.Values[br.Max], x, y, red.Values[br.Saddle], br.Persistence)
		} else {
			fmt.Fprintf(out, "  branch: max %.3f at (%d,%d) — root branch (infinite persistence)\n",
				red.Values[br.Max], x, y)
		}
	}
	// The correspondence: sweep three isovalues, show the segmentation.
	for _, iso := range []float64{0.8, 0.5, 0.2} {
		seg := mergetree.Segment(tr, iso)
		feats := mergetree.Features(tr, iso)
		fmt.Fprintf(out, "\nisovalue %.2f: %d contour component(s)\n", iso, len(feats))
		printSegRow(out, seg, b)
	}
}

func gauss(x, y, cx, cy, s float64) float64 {
	dx, dy := x-cx, y-cy
	return math.Exp(-(dx*dx + dy*dy) / (2 * s * s))
}

// printSegRow draws the 2-D segmentation as ASCII, one glyph per
// component.
func printSegRow(out io.Writer, seg *mergetree.Segmentation, b grid.Box) {
	glyphs := map[int64]byte{}
	next := byte('A')
	for j := b.Hi[1] - 1; j >= b.Lo[1]; j-- {
		line := make([]byte, 0, b.Hi[0])
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			id := grid.GlobalIndex(b, i, j, 0)
			label, ok := seg.Labels[id]
			if !ok {
				line = append(line, '.')
				continue
			}
			g, seen := glyphs[label]
			if !seen {
				g = next
				glyphs[label] = g
				next++
			}
			line = append(line, g)
		}
		fmt.Fprintf(out, "  %s\n", line)
	}
}

// loadConfig loads one of the table2 configs that declare the Table I,
// Table II and Fig. 6 pipelines; the path is relative to the
// repository root, where the binary is run from.
func loadConfig(name string) (*registry.Config, error) {
	cfg, err := registry.LoadConfig(filepath.Join("examples", "configs", name+".json"))
	if err != nil {
		return nil, fmt.Errorf("%w (run experiments from the repository root)", err)
	}
	return cfg, nil
}

// runTable1 measures both Table I columns, checkpointing under outdir.
func runTable1(out io.Writer, steps int, outdir string) error {
	fmt.Fprintln(out, "=== Table I: core allocations, data sizes, timings ===")
	var rows []*workload.TableIRow
	for _, name := range []string{"table2-4896", "table2-9440"} {
		cfg, err := loadConfig(name)
		if err != nil {
			return err
		}
		row, err := workload.RunTableI(cfg, steps, outdir)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(out, workload.FormatTableI(rows))
	return nil
}

// runTable2 prints Table II, Fig. 6 or both from one Table II run.
func runTable2(out io.Writer, steps int, table2, fig6 bool) error {
	cfg, err := loadConfig("table2-4896")
	if err != nil {
		return err
	}
	res, err := workload.RunTableII(cfg, steps)
	if err != nil {
		return err
	}
	if table2 {
		fmt.Fprintln(out, "=== Table II: analysis cost breakdown (4896-core scenario, paper values bracketed) ===")
		fmt.Fprintln(out, res.Format())
	}
	if fig6 {
		fmt.Fprintln(out, "=== Figure 6: per-step timing breakdown (4896-core scenario) ===")
		fmt.Fprintln(out, workload.FormatFig6(res.Fig6Series()))
	}
	return nil
}

func runFig1(out io.Writer, steps int) error {
	fmt.Fprintln(out, "=== Figure 1: ignition-kernel tracking vs analysis cadence ===")
	cfg := sim.DefaultConfig(grid.NewBox(48, 24, 12), 2, 2, 1)
	cfg.KernelRate = 0.8
	res, err := workload.RunFig1(cfg, max(steps*10, 40), 0.1, []int{1, 5, 10, 40})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Format())
	return nil
}

// runFig2 writes its PNGs into outdir ("": a new temporary directory).
func runFig2(out io.Writer, outdir string) error {
	if outdir == "" {
		dir, err := os.MkdirTemp("", "experiments-")
		if err != nil {
			return err
		}
		outdir = dir
	}
	fmt.Fprintln(out, "writing figures to", outdir)
	fmt.Fprintln(out, "=== Figure 2: in-situ full-resolution vs hybrid down-sampled rendering ===")
	cfg := sim.DefaultConfig(grid.NewBox(64, 48, 24), 2, 2, 1)
	res, err := workload.RunFig2(cfg, 12, 480, 360, []int{2, 8})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Format())
	imgs, names := []*render.Image{res.InSitu}, []string{"fig2-insitu-full.png"}
	for _, row := range res.Rows {
		imgs, names = append(imgs, row.Frame), append(names, fmt.Sprintf("fig2-hybrid-%dx.png", row.Factor))
	}
	for i, img := range imgs {
		path := filepath.Join(outdir, names[i])
		if err := img.SavePNG(path); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", path)
	}
	return nil
}

func runFig4(out io.Writer) error {
	fmt.Fprintln(out, "=== Figure 4: learn / derive / assess / test, in situ and hybrid ===")
	cfg := sim.DefaultConfig(grid.NewBox(40, 28, 12), 2, 2, 1)
	cfg.KernelRate = 1.0
	res, err := workload.RunFig4(cfg, 15)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Format())
	return nil
}
