package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMoments computes the reference two-pass statistics.
func naiveMoments(xs []float64) (mean, m2, m3, m4, lo, hi float64) {
	n := float64(len(xs))
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		mean += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	return
}

func sample(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
	}
	return xs
}

func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func TestUpdateMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 1000} {
		xs := sample(rng, n)
		m := NewMoments()
		m.UpdateBatch(xs)
		mean, m2, m3, m4, lo, hi := naiveMoments(xs)
		if m.N != int64(n) || m.Min != lo || m.Max != hi {
			t.Fatalf("n=%d: counters wrong: %+v", n, m)
		}
		if !approxEq(m.Mean, mean, 1e-12) || !approxEq(m.M2, m2, 1e-10) ||
			!approxEq(m.M3, m3, 1e-9) || !approxEq(m.M4, m4, 1e-9) {
			t.Fatalf("n=%d: single-pass diverged: got (%g %g %g %g) want (%g %g %g %g)",
				n, m.Mean, m.M2, m.M3, m.M4, mean, m2, m3, m4)
		}
	}
}

func TestZeroValueMoments(t *testing.T) {
	var m Moments // zero value, not NewMoments
	m.Update(5)
	m.Update(-3)
	if m.Min != -3 || m.Max != 5 || m.N != 2 {
		t.Fatalf("zero-value accumulator broken: %+v", m)
	}
}

func TestCombineMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := sample(rng, 5000)
	whole := NewMoments()
	whole.UpdateBatch(xs)
	// Split into uneven parts and combine.
	parts := []int{0, 17, 1200, 1201, 4000, 5000}
	combined := NewMoments()
	for i := 1; i < len(parts); i++ {
		p := NewMoments()
		p.UpdateBatch(xs[parts[i-1]:parts[i]])
		combined.Combine(p)
	}
	if combined.N != whole.N || combined.Min != whole.Min || combined.Max != whole.Max {
		t.Fatalf("counters differ: %+v vs %+v", combined, whole)
	}
	if !approxEq(combined.Mean, whole.Mean, 1e-12) ||
		!approxEq(combined.M2, whole.M2, 1e-10) ||
		!approxEq(combined.M3, whole.M3, 1e-8) ||
		!approxEq(combined.M4, whole.M4, 1e-8) {
		t.Fatalf("pairwise combine diverged:\n got %+v\nwant %+v", combined, whole)
	}
}

func TestCombineEmptyAndSelf(t *testing.T) {
	m := NewMoments()
	m.UpdateBatch([]float64{1, 2, 3})
	before := *m
	m.Combine(NewMoments()) // empty contributes nothing
	if *m != before {
		t.Fatal("combining an empty model changed the accumulator")
	}
	m.Combine(nil)
	if *m != before {
		t.Fatal("combining nil changed the accumulator")
	}
	empty := NewMoments()
	empty.Combine(m)
	if empty.N != 3 || !approxEq(empty.Mean, 2, 1e-15) {
		t.Fatalf("combine into empty failed: %+v", empty)
	}
}

// TestCombineAssociativityProperty: ((a+b)+c) == (a+(b+c)) within
// floating-point tolerance, for random partitions.
func TestCombineAssociativityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewMoments()
		a.UpdateBatch(sample(rng, 1+rng.Intn(50)))
		b := NewMoments()
		b.UpdateBatch(sample(rng, 1+rng.Intn(50)))
		c := NewMoments()
		c.UpdateBatch(sample(rng, 1+rng.Intn(50)))

		left := *a
		left.Combine(b)
		left.Combine(c)

		bc := *b
		bc.Combine(c)
		right := *a
		right.Combine(&bc)

		return left.N == right.N &&
			approxEq(left.Mean, right.Mean, 1e-10) &&
			approxEq(left.M2, right.M2, 1e-8) &&
			approxEq(left.M3, right.M3, 1e-6) &&
			approxEq(left.M4, right.M4, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveKnownDistribution(t *testing.T) {
	// Constant data.
	m := NewMoments()
	m.UpdateBatch([]float64{4, 4, 4, 4})
	d := Derive(m)
	if d.Variance != 0 || d.StdDev != 0 || d.Skewness != 0 || d.Kurtosis != 0 {
		t.Fatalf("constant data must have zero spread: %+v", d)
	}
	// {1..5}: mean 3, sample variance 2.5.
	m2 := NewMoments()
	m2.UpdateBatch([]float64{1, 2, 3, 4, 5})
	d2 := Derive(m2)
	if !approxEq(d2.Mean, 3, 1e-15) || !approxEq(d2.Variance, 2.5, 1e-12) {
		t.Fatalf("derive wrong: %+v", d2)
	}
	if math.Abs(d2.Skewness) > 1e-12 {
		t.Fatalf("symmetric data must have zero skewness, got %g", d2.Skewness)
	}
}

func TestDeriveGaussianShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMoments()
	for i := 0; i < 200000; i++ {
		m.Update(rng.NormFloat64()*2 + 5)
	}
	d := Derive(m)
	if !approxEq(d.Mean, 5, 0.01) || !approxEq(d.StdDev, 2, 0.01) {
		t.Fatalf("gaussian mean/stddev off: %+v", d)
	}
	if math.Abs(d.Skewness) > 0.05 || math.Abs(d.Kurtosis) > 0.1 {
		t.Fatalf("gaussian shape off: skew %g kurt %g", d.Skewness, d.Kurtosis)
	}
}

func TestAssess(t *testing.T) {
	m := NewMoments()
	m.UpdateBatch([]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 10})
	d := Derive(m)
	as := []Assessment{AssessOne(0, d, 2), AssessOne(10, d, 2), AssessOne(d.Mean, d, 2)}
	if as[2].Deviation != 0 {
		t.Fatalf("mean must deviate 0, got %g", as[2].Deviation)
	}
	if !as[1].Extreme {
		t.Fatal("outlier must be flagged extreme")
	}
	if as[0].Extreme {
		t.Fatal("typical value must not be extreme")
	}
	// Degenerate model: no flags.
	zero := Derive(NewMoments())
	for _, a := range []Assessment{AssessOne(1, zero, 2), AssessOne(2, zero, 2)} {
		if a.Extreme || a.Deviation != 0 {
			t.Fatal("degenerate model must not flag anything")
		}
	}
}

func TestJarqueBera(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gauss := NewMoments()
	skewed := NewMoments()
	for i := 0; i < 50000; i++ {
		gauss.Update(rng.NormFloat64())
		e := rng.ExpFloat64()
		skewed.Update(e * e)
	}
	tg := JarqueBera(Derive(gauss))
	ts := JarqueBera(Derive(skewed))
	if tg.Reject {
		t.Fatalf("normality rejected for gaussian data: %+v", tg)
	}
	if !ts.Reject {
		t.Fatalf("normality not rejected for squared-exponential data: %+v", ts)
	}
	if ts.Statistic <= tg.Statistic {
		t.Fatal("skewed data must have larger JB statistic")
	}
}
