// Command mtree computes the merge tree of a variable stored in a
// BP-lite checkpoint file, optionally simplifying by persistence and
// extracting superlevel-set features:
//
//	mtree -var T -simplify 0.1 -threshold 1.2 ckpt-00008-r000.bp
//
// With several input files (one per rank) it exercises the hybrid
// pipeline offline: per-file subtrees are glued with the streaming
// in-transit algorithm, exactly as the live framework does. The inputs
// are the checkpoints a run with a recovery block writes:
//
//	s3dpipe -config examples/configs/recovery.json
//	mtree -var T -threshold 1.2 out/s3d-journal/ckpt-00008-r*.bp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"insitu/internal/bp"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so tests
// drive it in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		varName   = fs.String("var", "T", "variable to analyze")
		simplify  = fs.Float64("simplify", 0, "prune branches below this persistence")
		threshold = fs.Float64("threshold", 0, "extract features above this value (0 = off)")
		maxima    = fs.Int("print", 10, "print the top N maxima by persistence")
	)
	if fs.Parse(args) != nil {
		return 2 // Parse has printed the error and the usage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mtree [flags] file.bp [file.bp ...]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mtree:", err)
		return 1
	}

	fields := make([]*grid.Field, 0, fs.NArg())
	global := grid.Box{}
	for _, path := range fs.Args() {
		f, err := bp.ReadVar(path, *varName)
		if err != nil {
			return fail(err)
		}
		fields = append(fields, f)
		global = global.Union(f.Box)
	}

	var tree *mergetree.Tree
	if len(fields) == 1 {
		tree = mergetree.Reduce(mergetree.FromField(fields[0], global), nil)
	} else {
		// Multi-block: stitch the global field, then run the hybrid
		// decomposition offline — per-block boundary-augmented
		// subtrees glued by the streaming in-transit algorithm,
		// exactly as the live framework does. Each input file's box is
		// treated as one rank's owned block.
		stitched := grid.NewField(*varName, global)
		for _, f := range fields {
			stitched.Paste(f)
		}
		var subtrees []*mergetree.Subtree
		for i, f := range fields {
			ext := f.Box.Grow(1).Intersect(global)
			st, err := mergetree.LocalSubtree(stitched.Extract(ext), global, f.Box, i, mergetree.KeepOverlapMaxima)
			if err != nil {
				return fail(err)
			}
			subtrees = append(subtrees, st)
		}
		var stats mergetree.StreamStats
		var err error
		tree, stats, err = new(mergetree.Builder).Glue(subtrees)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "streamed %d vertices, peak resident %d, evicted %d\n",
			stats.Declared, stats.PeakLive, stats.Evicted)
		tree = mergetree.Reduce(tree, nil)
	}

	if *simplify > 0 {
		tree = mergetree.Simplify(tree, *simplify)
	}
	fmt.Fprintf(stdout, "variable %s over %v: %d nodes, %d maxima, %d saddles, %d roots\n",
		*varName, global, tree.Len(), len(tree.Maxima()), len(tree.Saddles()), len(tree.Roots()))

	branches := mergetree.BranchDecomposition(tree)
	n := min(*maxima, len(branches))
	fmt.Fprintf(stdout, "\ntop %d branches by persistence:\n", n)
	for i := 0; i < n; i++ {
		b := branches[i]
		x, y, z := grid.GlobalPoint(global, tree.IDs[b.Max])
		fmt.Fprintf(stdout, "  max %.6g at (%d,%d,%d), persistence %.6g\n",
			tree.Values[b.Max], x, y, z, b.Persistence)
	}

	if *threshold > 0 {
		feats := mergetree.Features(tree, *threshold)
		fmt.Fprintf(stdout, "\n%d features above %.6g:\n", len(feats), *threshold)
		for i, f := range feats {
			if i >= *maxima {
				fmt.Fprintf(stdout, "  ... and %d more\n", len(feats)-i)
				break
			}
			x, y, z := grid.GlobalPoint(global, f.MaxID)
			fmt.Fprintf(stdout, "  feature %d: %d retained vertices, peak %.6g at (%d,%d,%d)\n",
				i, f.Size, f.MaxValue, x, y, z)
		}
	}
	return 0
}
