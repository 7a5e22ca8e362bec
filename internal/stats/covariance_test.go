package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"insitu/internal/grid"
)

func naiveCov(xs, ys []float64) (cov, corr float64) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var cxy, m2x, m2y float64
	for i := range xs {
		cxy += (xs[i] - mx) * (ys[i] - my)
		m2x += (xs[i] - mx) * (xs[i] - mx)
		m2y += (ys[i] - my) * (ys[i] - my)
	}
	return cxy / (n - 1), cxy / math.Sqrt(m2x*m2y)
}

func TestCovarianceMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 2000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.7*xs[i] + 0.3*rng.NormFloat64()
	}
	c := &Covariance{}
	for i := range xs {
		c.Update(xs[i], ys[i])
	}
	cov, corr := naiveCov(xs, ys)
	if got := c.CXY / float64(c.N-1); !approxEq(got, cov, 1e-10) || !approxEq(c.Corr(), corr, 1e-10) {
		t.Fatalf("one-pass covariance diverged: %g/%g vs %g/%g", got, c.Corr(), cov, corr)
	}
	if c.Corr() < 0.85 {
		t.Fatalf("strongly correlated data should show corr > 0.85, got %g", c.Corr())
	}
}

func TestCovarianceCombineProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		split := 1 + rng.Intn(n-1)
		whole, a, b := &Covariance{}, &Covariance{}, &Covariance{}
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			y := x*0.5 + rng.NormFloat64()
			whole.Update(x, y)
			if i < split {
				a.Update(x, y)
			} else {
				b.Update(x, y)
			}
		}
		a.Combine(b)
		return a.N == whole.N &&
			approxEq(a.CXY, whole.CXY, 1e-8) &&
			approxEq(a.M2X, whole.M2X, 1e-8) &&
			approxEq(a.M2Y, whole.M2Y, 1e-8) &&
			approxEq(a.MeanX, whole.MeanX, 1e-10) &&
			approxEq(a.MeanY, whole.MeanY, 1e-10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCovarianceEdgeCases(t *testing.T) {
	c := &Covariance{}
	if c.Corr() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	c.Update(1, 1)
	if c.Corr() != 0 {
		t.Fatal("single observation has no correlation")
	}
	c.Combine(nil)
	c.Combine(&Covariance{})
	if c.N != 1 {
		t.Fatal("empty combines must not change N")
	}
	d := &Covariance{}
	d.Combine(c)
	if d.N != 1 || d.MeanX != 1 {
		t.Fatalf("combine into empty failed: %+v", d)
	}
}

func TestCovarianceMarshalRoundTrip(t *testing.T) {
	c := &Covariance{}
	for i := 0; i < 10; i++ {
		c.Update(float64(i), float64(i*i))
	}
	got, err := UnmarshalCovariance(c.appendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *c {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
	if _, err := UnmarshalCovariance([]byte{1}); err == nil {
		t.Fatal("short payload must error")
	}
}

func TestAutoCorrelatorAR1(t *testing.T) {
	// AR(1) process x_t = phi x_{t-1} + noise has autocorrelation
	// phi^lag.
	ac, err := NewAutoCorrelator(1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const phi = 0.8
	const width = 64
	state := make([]float64, width)
	for step := 0; step < 4000; step++ {
		for i := range state {
			state[i] = phi*state[i] + rng.NormFloat64()
		}
		snap := make([]float64, width)
		copy(snap, state)
		ac.Push(snap)
	}
	corr := ac.Corr()
	for li, lag := range ac.Lags {
		want := math.Pow(phi, float64(lag))
		if math.Abs(corr[li]-want) > 0.05 {
			t.Fatalf("lag %d: want autocorr ~%.3f, got %.3f", lag, want, corr[li])
		}
	}
}

func TestAutoCorrelatorCombineAndMarshal(t *testing.T) {
	mk := func(seed int64) *AutoCorrelator {
		ac, _ := NewAutoCorrelator(1, 3)
		rng := rand.New(rand.NewSource(seed))
		x := 0.0
		for step := 0; step < 200; step++ {
			x = 0.9*x + rng.NormFloat64()
			ac.Push([]float64{x})
		}
		return ac
	}
	a, b := mk(1), mk(2)
	if err := a.Combine(b); err != nil {
		t.Fatal(err)
	}
	if a.Acc(0).N != 199*2 {
		t.Fatalf("combined count wrong: %d", a.Acc(0).N)
	}
	got, err := UnmarshalAutoCorrelator(a.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Lags) != 2 || got.Lags[1] != 3 || *got.Acc(1) != *a.Acc(1) {
		t.Fatalf("round trip mismatch")
	}
	bad, _ := NewAutoCorrelator(2)
	if err := a.Combine(bad); err == nil {
		t.Fatal("mismatched lags must error")
	}
}

// TestAutoCorrelatorPushBoxInPlace: pushing a sub-box read in place
// accumulates bit for bit what pushing its copy does, and once the ring
// is full a push allocates nothing.
func TestAutoCorrelatorPushBoxInPlace(t *testing.T) {
	f := grid.NewField("T", grid.Box{Lo: [3]int{-1, -1, -1}, Hi: [3]int{9, 7, 5}})
	sub := grid.Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{8, 6, 4}}
	inPlace, _ := NewAutoCorrelator(1, 3)
	copies, _ := NewAutoCorrelator(1, 3)
	rng := rand.New(rand.NewSource(4))
	step := func() {
		for i := range f.Data {
			f.Data[i] = 0.8*f.Data[i] + rng.NormFloat64()
		}
		inPlace.PushBox(f, sub)
	}
	for range 12 {
		step()
		copies.Push(f.Extract(sub).Data)
	}
	for i := range inPlace.Lags {
		if *inPlace.Acc(i) != *copies.Acc(i) {
			t.Fatalf("lag %d: in place %+v, from copies %+v", inPlace.Lags[i], *inPlace.Acc(i), *copies.Acc(i))
		}
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("a push into a full ring allocates %v objects", allocs)
	}
}

func TestAutoCorrelatorValidation(t *testing.T) {
	if _, err := NewAutoCorrelator(); err == nil {
		t.Fatal("no lags must error")
	}
	if _, err := NewAutoCorrelator(0); err == nil {
		t.Fatal("lag 0 must error")
	}
	if _, err := UnmarshalAutoCorrelator(nil); err == nil {
		t.Fatal("empty payload must error")
	}
}
