package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/grid"
)

// ghostedPair returns two noisy fields over owned grown by one ghost
// layer, the shape an in-situ stage reads.
func ghostedPair(owned grid.Box) (fx, fy *grid.Field) {
	rng := rand.New(rand.NewSource(int64(owned.Size())))
	fx, fy = grid.NewField("T", owned.Grow(1)), grid.NewField("Y_OH", owned.Grow(1))
	for i := range fx.Data {
		fx.Data[i] = 1.2 + rng.NormFloat64()
		fy.Data[i] = 0.15 + 0.1*rng.NormFloat64()
	}
	return fx, fy
}

// TestLearnInPlaceIsBitwiseTheCopy: learning the owned block where it
// lies in the ghosted field gives the very Moments that learning a
// copy of the block gives — same values, same order, and above one
// chunk the same fixed partition of the linearized block (2^14 is not
// a multiple of the 25-cell rows, so a chunk boundary falls mid-row).
// The chunked reference is spelled out here rather than taken from
// LearnFieldParallel, which is the same code.
func TestLearnInPlaceIsBitwiseTheCopy(t *testing.T) {
	for _, owned := range []grid.Box{
		{Lo: [3]int{3, 0, 2}, Hi: [3]int{15, 10, 10}}, // 960 cells: one serial fold
		{Lo: [3]int{4, 1, 0}, Hi: [3]int{29, 28, 26}}, // 17 550 cells: two chunks
	} {
		f, _ := ghostedPair(owned)
		block := f.Extract(owned)

		want := NewMoments()
		if n := len(block.Data); n <= updateChunk {
			want.UpdateBatch(block.Data)
		} else {
			if updateChunk%owned.Dims()[0] == 0 {
				t.Fatal("the chunk boundary must fall inside a row for this test to mean anything")
			}
			for lo := 0; lo < n; lo += updateChunk {
				part := NewMoments()
				part.UpdateBatch(block.Data[lo:min(lo+updateChunk, n)])
				want.Combine(part)
			}
		}

		inPlace, copied := NewModel(), NewModel()
		inPlace.LearnBoxParallel(f, owned)
		copied.LearnFieldParallel(block)
		if got := *inPlace.Var("T"); got != *want {
			t.Errorf("%v in place: %+v, want %+v", owned, got, *want)
		}
		if got := *copied.Var("T"); got != *want {
			t.Errorf("%v copied: %+v, want %+v", owned, got, *want)
		}
		if math.IsInf(want.Min, 0) || want.N != int64(owned.Size()) {
			t.Fatalf("%v: reference learned %d of %d points", owned, want.N, owned.Size())
		}
	}
}

// TestContingencyInPlaceIsTheCopy: the same for the bivariate table.
func TestContingencyInPlaceIsTheCopy(t *testing.T) {
	for _, owned := range []grid.Box{
		{Lo: [3]int{3, 0, 2}, Hi: [3]int{15, 10, 10}},
		{Lo: [3]int{4, 1, 0}, Hi: [3]int{29, 28, 26}},
	} {
		fx, fy := ghostedPair(owned)
		want, _ := NewContingency(0, 2.5, 16, 0, 0.3, 16)
		if err := want.UpdateBatch(fx.Extract(owned).Data, fy.Extract(owned).Data); err != nil {
			t.Fatal(err)
		}
		got, _ := NewContingency(0, 2.5, 16, 0, 0.3, 16)
		if err := got.UpdateBoxParallel(fx, fy, owned); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.AppendMarshal(nil), want.AppendMarshal(nil)) {
			t.Errorf("%v: the table binned in place differs from the table of the copies", owned)
		}
	}
}
