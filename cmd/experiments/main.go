// Command experiments regenerates every table and figure of the
// paper's evaluation section at laptop scale:
//
//	experiments -table1   core allocations, data size, sim + I/O times
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

func main() {
	var (
		table1 = flag.Bool("table1", false, "reproduce Table I")
		table2 = flag.Bool("table2", false, "reproduce Table II")
		fig1   = flag.Bool("fig1", false, "reproduce the Fig. 1 tracking experiment")
		fig2   = flag.Bool("fig2", false, "reproduce the Fig. 2 rendering comparison")
		fig3   = flag.Bool("fig3", false, "reproduce the Fig. 3 merge-tree/segmentation example")
		fig4   = flag.Bool("fig4", false, "reproduce the Fig. 4 four-stage statistics")
		fig6   = flag.Bool("fig6", false, "reproduce the Fig. 6 breakdown")
		all    = flag.Bool("all", false, "run everything")
		steps  = flag.Int("steps", 4, "simulation steps per measurement")
		outdir = flag.String("outdir", "", "directory for generated files (default: a new temporary directory)")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig1, *fig2, *fig3, *fig4, *fig6 = true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig1 && !*fig2 && !*fig3 && !*fig4 && !*fig6 {
		flag.Usage()
		os.Exit(2)
	}
	if *table1 {
		runTable1(*steps)
	}
	var t2 *workload.TableIIResult
	if *table2 || *fig6 {
		t2 = runTable2(*steps, *table2)
	}
	if *fig6 {
		fmt.Println("=== Figure 6: per-step timing breakdown (4896-core scenario) ===")
		fmt.Println(workload.FormatFig6(t2.Fig6Series()))
	}
	if *fig1 {
		runFig1(*steps)
	}
	if *fig2 {
		if *outdir == "" {
			dir, err := os.MkdirTemp("", "experiments-")
			if err != nil {
				fatal(err)
			}
			*outdir = dir
		}
		fmt.Println("writing figures to", *outdir)
		runFig2(*outdir)
	}
	if *fig3 {
		runFig3()
	}
	if *fig4 {
		runFig4()
	}
}

// runFig3 reproduces the paper's Fig. 3: a 2-D function whose merge
// tree encodes the merging of contours as the isovalue is lowered,
// with branches corresponding to regions in the domain.
func runFig3() {
	fmt.Println("=== Figure 3: merge tree <-> segmentation correspondence (2-D example) ===")
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
	fmt.Printf("merge tree: %d maxima, %d saddles\n", len(tr.Maxima()), len(tr.Saddles()))
	for _, br := range branches {
		x, y, _ := grid.GlobalPoint(b, red.IDs[br.Max])
		if br.Saddle >= 0 {
			fmt.Printf("  branch: max %.3f at (%d,%d) merges at saddle %.3f (persistence %.3f)\n",
				red.Values[br.Max], x, y, red.Values[br.Saddle], br.Persistence)
		} else {
			fmt.Printf("  branch: max %.3f at (%d,%d) — root branch (infinite persistence)\n",
				red.Values[br.Max], x, y)
		}
	}
	// The correspondence: sweep three isovalues, show the segmentation.
	for _, iso := range []float64{0.8, 0.5, 0.2} {
		seg := mergetree.Segment(tr, iso)
		feats := mergetree.Features(tr, iso)
		fmt.Printf("\nisovalue %.2f: %d contour component(s)\n", iso, len(feats))
		printSegRow(f, seg, b)
	}
}

func gauss(x, y, cx, cy, s float64) float64 {
	dx, dy := x-cx, y-cy
	return math.Exp(-(dx*dx + dy*dy) / (2 * s * s))
}

// printSegRow draws the 2-D segmentation as ASCII, one glyph per
// component.
func printSegRow(f *grid.Field, seg *mergetree.Segmentation, b grid.Box) {
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
		fmt.Printf("  %s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// loadConfig loads one of the table2 configs that declare the Table I,
// Table II and Fig. 6 pipelines; the path is relative to the
// repository root, where the binary is run from.
func loadConfig(name string) *registry.Config {
	cfg, err := registry.LoadConfig(filepath.Join("examples", "configs", name+".json"))
	if err != nil {
		fatal(fmt.Errorf("%w (run experiments from the repository root)", err))
	}
	return cfg
}

func runTable1(steps int) {
	fmt.Println("=== Table I: core allocations, data sizes, timings ===")
	var rows []*workload.TableIRow
	for _, name := range []string{"table2-4896", "table2-9440"} {
		row, err := workload.RunTableI(loadConfig(name), steps)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, row)
	}
	fmt.Println(workload.FormatTableI(rows))
}

func runTable2(steps int, print bool) *workload.TableIIResult {
	res, err := workload.RunTableII(loadConfig("table2-4896"), steps)
	if err != nil {
		fatal(err)
	}
	if print {
		fmt.Println("=== Table II: analysis cost breakdown (4896-core scenario, paper values bracketed) ===")
		fmt.Println(res.Format())
	}
	return res
}

func runFig1(steps int) {
	fmt.Println("=== Figure 1: ignition-kernel tracking vs analysis cadence ===")
	cfg := sim.DefaultConfig(grid.NewBox(48, 24, 12), 2, 2, 1)
	cfg.KernelRate = 0.8
	n := steps * 10
	if n < 40 {
		n = 40
	}
	res, err := workload.RunFig1(cfg, n, 0.1, []int{1, 5, 10, 40})
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.Format())
}

func runFig2(outdir string) {
	fmt.Println("=== Figure 2: in-situ full-resolution vs hybrid down-sampled rendering ===")
	cfg := sim.DefaultConfig(grid.NewBox(64, 48, 24), 2, 2, 1)
	res, err := workload.RunFig2(cfg, 12, 480, 360, []int{2, 8})
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.Format())
	mustSave(res.InSitu, filepath.Join(outdir, "fig2-insitu-full.png"))
	for _, row := range res.Rows {
		mustSave(row.Frame, filepath.Join(outdir, fmt.Sprintf("fig2-hybrid-%dx.png", row.Factor)))
	}
}

func runFig4() {
	fmt.Println("=== Figure 4: learn / derive / assess / test, in situ and hybrid ===")
	cfg := sim.DefaultConfig(grid.NewBox(40, 28, 12), 2, 2, 1)
	cfg.KernelRate = 1.0
	res, err := workload.RunFig4(cfg, 15)
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.Format())
}

func mustSave(img *render.Image, path string) {
	if err := img.SavePNG(path); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}
