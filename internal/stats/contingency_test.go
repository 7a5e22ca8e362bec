package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContingencyValidation(t *testing.T) {
	if _, err := NewContingency(0, 1, 0, 0, 1, 4); err == nil {
		t.Fatal("zero bins must error")
	}
	if _, err := NewContingency(1, 1, 4, 0, 1, 4); err == nil {
		t.Fatal("empty range must error")
	}
	c, _ := NewContingency(0, 1, 4, 0, 1, 4)
	if err := c.UpdateBatch([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestContingencyBinningAndClamp(t *testing.T) {
	c, _ := NewContingency(0, 4, 4, 0, 2, 2)
	c.Update(0.5, 0.5) // bin (0,0)
	c.Update(3.9, 1.9) // bin (3,1)
	c.Update(-5, -5)   // clamped to (0,0)
	c.Update(99, 99)   // clamped to (3,1)
	if c.N != 4 {
		t.Fatalf("N: want 4, got %d", c.N)
	}
	if c.Counts[0] != 2 || c.Counts[3+4*1] != 2 {
		t.Fatalf("binning wrong: %v", c.Counts)
	}
}

func TestContingencyCombineMatchesWhole(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		whole, _ := NewContingency(-3, 3, 8, -3, 3, 6)
		a, _ := NewContingency(-3, 3, 8, -3, 3, 6)
		b, _ := NewContingency(-3, 3, 8, -3, 3, 6)
		n := 50 + rng.Intn(200)
		split := rng.Intn(n)
		for i := 0; i < n; i++ {
			x, y := rng.NormFloat64(), rng.NormFloat64()
			whole.Update(x, y)
			if i < split {
				a.Update(x, y)
			} else {
				b.Update(x, y)
			}
		}
		if err := a.Combine(b); err != nil {
			return false
		}
		if a.N != whole.N {
			return false
		}
		for i := range a.Counts {
			if a.Counts[i] != whole.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestContingencyCombineMismatch(t *testing.T) {
	a, _ := NewContingency(0, 1, 4, 0, 1, 4)
	b, _ := NewContingency(0, 2, 4, 0, 1, 4)
	b.Update(1, 0.5)
	if err := a.Combine(b); err == nil {
		t.Fatal("mismatched binning must error")
	}
	if err := a.Combine(nil); err != nil {
		t.Fatal("nil combine must be a no-op")
	}
}

func TestContingencyIndependentVars(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, _ := NewContingency(0, 1, 8, 0, 1, 8)
	for i := 0; i < 100000; i++ {
		c.Update(rng.Float64(), rng.Float64())
	}
	d := c.Derive()
	if d.MutualInfo > 0.01 {
		t.Fatalf("independent uniforms should have MI ~ 0, got %g", d.MutualInfo)
	}
	// Uniform marginals over 8 bins: H = ln 8.
	if math.Abs(d.HX-math.Log(8)) > 0.01 || math.Abs(d.HY-math.Log(8)) > 0.01 {
		t.Fatalf("marginal entropies off: %g %g (want %g)", d.HX, d.HY, math.Log(8))
	}
	if d.CramersV > 0.05 {
		t.Fatalf("independent vars should have tiny Cramer's V, got %g", d.CramersV)
	}
}

func TestContingencyIdenticalVars(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := NewContingency(0, 1, 8, 0, 1, 8)
	for i := 0; i < 100000; i++ {
		x := rng.Float64()
		c.Update(x, x)
	}
	d := c.Derive()
	// For Y == X, I(X;Y) = H(X) and Cramer's V ~ 1.
	if math.Abs(d.MutualInfo-d.HX) > 0.01 {
		t.Fatalf("identical vars should have MI == HX: %g vs %g", d.MutualInfo, d.HX)
	}
	if d.CramersV < 0.95 {
		t.Fatalf("identical vars should have Cramer's V ~ 1, got %g", d.CramersV)
	}
	// Chi-squared enormous relative to dof.
	if d.ChiSquare < 10*float64(d.DoF) {
		t.Fatalf("dependence not detected: chi2=%g dof=%d", d.ChiSquare, d.DoF)
	}
}

func TestContingencyCorrelatedVars(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := NewContingency(-4, 4, 10, -4, 4, 10)
	for i := 0; i < 50000; i++ {
		x := rng.NormFloat64()
		y := 0.9*x + 0.4*rng.NormFloat64()
		c.Update(x, y)
	}
	d := c.Derive()
	if d.MutualInfo < 0.3 {
		t.Fatalf("strongly correlated vars should carry information: MI=%g", d.MutualInfo)
	}
}

func TestContingencyDeriveEmpty(t *testing.T) {
	c, _ := NewContingency(0, 1, 4, 0, 1, 4)
	d := c.Derive()
	if d.MutualInfo != 0 || d.HX != 0 || d.ChiSquare != 0 {
		t.Fatalf("empty table must derive zeros: %+v", d)
	}
}

func TestContingencyMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, _ := NewContingency(-1, 1, 5, 0, 2, 3)
	for i := 0; i < 100; i++ {
		c.Update(rng.NormFloat64(), rng.Float64()*2)
	}
	got, err := UnmarshalContingency(c.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != c.N || got.XBins != c.XBins || got.YLo != c.YLo {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range c.Counts {
		if got.Counts[i] != c.Counts[i] {
			t.Fatal("counts mismatch")
		}
	}
	if _, err := UnmarshalContingency(nil); err == nil {
		t.Fatal("empty payload must error")
	}
	if _, err := UnmarshalContingency(c.AppendMarshal(nil)[:40]); !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("truncated payload: error %v, want ErrCorruptPayload", err)
	}
}

// TestUnmarshalContingencyHostileBins: bin counts whose product wraps
// to zero used to decode as a table of no cells, whose Derive then
// panicked allocating 2^62 marginals. They fail as a corrupt payload.
func TestUnmarshalContingencyHostileBins(t *testing.T) {
	for _, bins := range [][2]uint64{{4, 1 << 62}, {1 << 62, 4}, {1 << 32, 1 << 32}, {1 << 63, 1}, {2, 1}} {
		p := make([]byte, 7*8) // header only: room for no cell
		binary.LittleEndian.PutUint64(p[32:], bins[0])
		binary.LittleEndian.PutUint64(p[40:], bins[1])
		binary.LittleEndian.PutUint64(p[48:], 1) // one observation
		if _, err := UnmarshalContingency(p); !errors.Is(err, ErrCorruptPayload) {
			t.Errorf("bins %dx%d in a 56-byte payload: error %v, want ErrCorruptPayload", bins[0], bins[1], err)
		}
	}
}
