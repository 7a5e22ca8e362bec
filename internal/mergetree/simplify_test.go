package mergetree

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/grid"
)

// threePeakField builds a 1-D profile with peaks of persistence 4, 2
// and 0.5:
//
//	value: 1 5 2 4 1 1.5 1 0
//	index: 0 1 2 3 4  5  6 7
//
// peak 1 (val 5) is the global max (infinite persistence), peak 3
// (val 4) dies at the saddle val 2 (persistence 2), peak 5 (val 1.5)
// dies at a saddle val 1 (persistence 0.5).
func threePeakField() (*grid.Field, grid.Box) {
	b := grid.NewBox(8, 1, 1)
	f := grid.NewField("f", b)
	for i, v := range []float64{1, 5, 2, 4, 1, 1.5, 1, 0} {
		f.Set(i, 0, 0, v)
	}
	return f, b
}

func TestBranchDecomposition(t *testing.T) {
	f, b := threePeakField()
	tr := FromField(f, b)
	branches := BranchDecomposition(tr)
	if len(branches) != 3 {
		t.Fatalf("want 3 branches, got %d", len(branches))
	}
	if !math.IsInf(branches[0].Persistence, 1) || tr.Values[branches[0].Max] != 5 || branches[0].Saddle != -1 {
		t.Fatalf("first branch should be the infinite one at value 5: %+v", branches[0])
	}
	if branches[1].Persistence != 2 || tr.Values[branches[1].Max] != 4 {
		t.Fatalf("second branch should be (max 4, pers 2): %+v", branches[1])
	}
	if branches[2].Persistence != 0.5 || tr.Values[branches[2].Max] != 1.5 {
		t.Fatalf("third branch should be (max 1.5, pers 0.5): %+v", branches[2])
	}
	if tr.Values[branches[1].Saddle] != 2 {
		t.Fatalf("pers-2 branch should die at saddle value 2, got %g", tr.Values[branches[1].Saddle])
	}
}

func TestSimplifyThresholds(t *testing.T) {
	f, b := threePeakField()
	tr := FromField(f, b)

	// eps=1 prunes only the pers-0.5 branch.
	s1 := new(Scratch).Simplify(tr, 1)
	if got := len(s1.Maxima()); got != 2 {
		t.Fatalf("eps=1: want 2 maxima, got %d", got)
	}
	// eps=3 prunes both finite branches.
	s3 := new(Scratch).Simplify(tr, 3)
	if got := len(s3.Maxima()); got != 1 {
		t.Fatalf("eps=3: want 1 maximum, got %d", got)
	}
	if s3.Values[s3.Maxima()[0]] != 5 {
		t.Fatalf("surviving maximum should be the global max")
	}
	// eps=0 keeps everything.
	if s0 := new(Scratch).Simplify(tr, 0); !equalTrees(s0, tr) {
		t.Fatalf("eps=0 must not change the tree")
	}
}

func TestSimplifyPreservesTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := grid.NewBox(12, 12, 4)
	f := randomField(rng, b)
	tr := FromField(f, b)
	for _, eps := range []float64{0.1, 0.3, 0.7} {
		s := new(Scratch).Simplify(tr, eps)
		if len(roots(s)) != 1 {
			t.Fatalf("eps=%g: simplified tree lost its root", eps)
		}
		for i, d := range s.Down {
			if d >= 0 && !Above(s.Values[i], s.IDs[i], s.Values[d], s.IDs[d]) {
				t.Fatalf("eps=%g: non-descending arc after simplification", eps)
			}
		}
		// Persistence of every surviving maximum must be >= eps.
		pers := make(map[int64]float64)
		for _, br := range BranchDecomposition(tr) {
			pers[tr.IDs[br.Max]] = br.Persistence
		}
		for _, m := range s.Maxima() {
			if p, ok := pers[s.IDs[m]]; ok && p < eps {
				t.Fatalf("eps=%g: maximum %d with persistence %g survived", eps, s.IDs[m], p)
			}
		}
	}
}

func TestSimplifyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := grid.NewBox(10, 10, 3)
	f := randomField(rng, b)
	tr := FromField(f, b)
	prev := len(tr.Maxima())
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		n := len(new(Scratch).Simplify(tr, eps).Maxima())
		if n > prev {
			t.Fatalf("maxima count must be monotone non-increasing in eps")
		}
		prev = n
	}
}
