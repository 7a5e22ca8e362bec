// Command mtree computes the merge tree of a variable stored in a
// BP-lite checkpoint file, optionally simplifying by persistence and
// extracting superlevel-set features:
//
//	mtree -var T -simplify 0.1 -threshold 1.2 rank-0000.bp
//
// With several input files (one per rank) it exercises the hybrid
// pipeline offline: per-file subtrees are glued with the streaming
// in-transit algorithm, exactly as the live framework does.
package main

import (
	"flag"
	"fmt"
	"os"

	"insitu/internal/bp"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
)

func main() {
	var (
		varName   = flag.String("var", "T", "variable to analyze")
		simplify  = flag.Float64("simplify", 0, "prune branches below this persistence")
		threshold = flag.Float64("threshold", 0, "extract features above this value (0 = off)")
		maxima    = flag.Int("print", 10, "print the top N maxima by persistence")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mtree [flags] file.bp [file.bp ...]")
		os.Exit(2)
	}

	fields := make([]*grid.Field, 0, flag.NArg())
	global := grid.Box{}
	for _, path := range flag.Args() {
		f, err := bp.ReadVar(path, *varName)
		if err != nil {
			fail(err)
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
				fail(err)
			}
			subtrees = append(subtrees, st)
		}
		var stats mergetree.StreamStats
		var err error
		tree, stats, err = new(mergetree.Builder).Glue(subtrees)
		if err != nil {
			fail(err)
		}
		fmt.Printf("streamed %d vertices, peak resident %d, evicted %d\n",
			stats.Declared, stats.PeakLive, stats.Evicted)
		tree = mergetree.Reduce(tree, nil)
	}

	if *simplify > 0 {
		tree = mergetree.Simplify(tree, *simplify)
	}
	fmt.Printf("variable %s over %v: %d nodes, %d maxima, %d saddles, %d roots\n",
		*varName, global, tree.Len(), len(tree.Maxima()), len(tree.Saddles()), len(tree.Roots()))

	branches := mergetree.BranchDecomposition(tree)
	n := *maxima
	if n > len(branches) {
		n = len(branches)
	}
	fmt.Printf("\ntop %d branches by persistence:\n", n)
	for i := 0; i < n; i++ {
		b := branches[i]
		x, y, z := grid.GlobalPoint(global, tree.IDs[b.Max])
		fmt.Printf("  max %.6g at (%d,%d,%d), persistence %.6g\n",
			tree.Values[b.Max], x, y, z, b.Persistence)
	}

	if *threshold > 0 {
		feats := mergetree.Features(tree, *threshold)
		fmt.Printf("\n%d features above %.6g:\n", len(feats), *threshold)
		for i, f := range feats {
			if i >= *maxima {
				fmt.Printf("  ... and %d more\n", len(feats)-i)
				break
			}
			x, y, z := grid.GlobalPoint(global, f.MaxID)
			fmt.Printf("  feature %d: %d retained vertices, peak %.6g at (%d,%d,%d)\n",
				i, f.Size, f.MaxValue, x, y, z)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mtree:", err)
	os.Exit(1)
}
