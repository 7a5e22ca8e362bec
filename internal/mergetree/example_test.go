package mergetree_test

import (
	"fmt"
	"slices"

	"insitu/internal/grid"
	"insitu/internal/mergetree"
)

// A 1-D profile with two peaks: the merge tree has two maxima joined
// at a saddle, and persistence simplification removes the weaker peak.
func ExampleFromField() {
	b := grid.NewBox(5, 1, 1)
	f := grid.NewField("f", b)
	for i, v := range []float64{1, 5, 2, 4, 1} {
		f.Set(i, 0, 0, v)
	}
	tree := mergetree.FromField(f, b)
	fmt.Printf("maxima=%d saddles=%d\n", len(tree.Maxima()), len(tree.Saddles()))
	simplified := new(mergetree.Scratch).Simplify(tree, 2.5) // peak 4 has persistence 2
	fmt.Printf("after eps=2.5: maxima=%d\n", len(simplified.Maxima()))
	// Output:
	// maxima=2 saddles=1
	// after eps=2.5: maxima=1
}

// The hybrid decomposition: per-block boundary-augmented subtrees glue
// into exactly the serial tree.
func ExampleBuilder_Glue() {
	b := grid.NewBox(8, 4, 1)
	f := grid.NewField("f", b)
	for idx := range f.Data {
		i, j, _ := b.Point(idx)
		f.Data[idx] = float64((i*3+j*7)%11) / 11
	}
	dc, _ := grid.NewDecomp(b, 2, 2, 1)
	var subtrees []*mergetree.Subtree
	for r := 0; r < dc.Ranks(); r++ {
		owned := dc.Block(r)
		ext := owned.Grow(1).Intersect(b)
		st, _ := mergetree.LocalSubtree(f.Extract(ext), b, owned, r, mergetree.KeepOverlapMaxima)
		subtrees = append(subtrees, st)
	}
	glued, _, _ := new(mergetree.Builder).Glue(subtrees)
	serial := mergetree.FromField(f, b)
	// Compare the critical points: Reduce with no keep function.
	fmt.Println("distributed == serial:", sameTree(mergetree.Reduce(glued, nil), mergetree.Reduce(serial, nil)))
	// Output:
	// distributed == serial: true
}

// Feature lineage from per-step overlaps: a feature splits, and its
// track follows the part it overlaps most.
func ExampleTrackGraph() {
	g := mergetree.NewTrackGraph()
	g.AddStep(1, []int64{10})
	g.AddStep(2, []int64{20, 21})
	g.AddMatches(1, 2, []mergetree.Match{
		{PrevLabel: 10, NextLabel: 21, Overlap: 9},
		{PrevLabel: 10, NextLabel: 20, Overlap: 2},
	})
	g.AddStep(3, []int64{30})
	g.AddMatches(2, 3, []mergetree.Match{{PrevLabel: 21, NextLabel: 30, Overlap: 7}})
	for _, tr := range g.Tracks() {
		fmt.Println(tr.Nodes)
	}
	fmt.Println(g.Summarize(false).Format())
	// Output:
	// [{1 10} {2 21} {3 30}]
	// tracks=1 longest=3 mean-lifetime=3.0 births=1 deaths=2 merges=0 splits=1
}

// sameTree reports whether two trees hold the same nodes, values and
// arcs: trees list their nodes in sweep order, so equal trees are
// equal arrays.
func sameTree(a, b *mergetree.Tree) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Values, b.Values) && slices.Equal(a.Down, b.Down)
}
