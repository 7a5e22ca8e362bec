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
	simplified := mergetree.Simplify(tree, 2.5) // peak 4 has persistence 2
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

// Threshold segmentation and overlap tracking between two steps.
func ExampleTrack() {
	b := grid.NewBox(8, 1, 1)
	mk := func(center int) *mergetree.Segmentation {
		f := grid.NewField("f", b)
		for i := 0; i < 8; i++ {
			d := i - center
			if d < 0 {
				d = -d
			}
			f.Set(i, 0, 0, 1-float64(d)/4)
		}
		return mergetree.SegmentField(f, b, 0.7)
	}
	matches := mergetree.Track(mk(3), mk(4)) // feature moved one cell
	fmt.Printf("matches=%d overlap=%d\n", len(matches), matches[0].Overlap)
	// Output:
	// matches=1 overlap=2
}

// sameTree reports whether two trees hold the same nodes, values and
// arcs: trees list their nodes in sweep order, so equal trees are
// equal arrays.
func sameTree(a, b *mergetree.Tree) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Values, b.Values) && slices.Equal(a.Down, b.Down)
}
