package stats_test

import (
	"fmt"

	"insitu/internal/stats"
)

// The single-pass accumulator and the pairwise combine: two partial
// models over halves of the data merge into exactly the model of the
// whole.
func ExampleMoments_Combine() {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	a := stats.NewMoments()
	a.UpdateBatch(xs[:4])
	b := stats.NewMoments()
	b.UpdateBatch(xs[4:])
	a.Combine(b)
	d := stats.Derive(a)
	fmt.Printf("n=%d mean=%.1f stddev=%.3f\n", d.N, d.Mean, d.StdDev)
	// Output:
	// n=8 mean=5.0 stddev=2.138
}

// The four-stage pattern: learn builds the minimal model, derive the
// detailed one, assess standardizes observations, test computes a
// hypothesis-test statistic.
func ExampleDerive() {
	m := stats.NewMoments()
	for i := 1; i <= 5; i++ {
		m.Update(float64(i))
	}
	d := stats.Derive(m)
	a := stats.AssessOne(3, d, 2)
	fmt.Printf("mean=%.0f variance=%.1f deviation(3)=%.0f\n", d.Mean, d.Variance, a.Deviation)
	// Output:
	// mean=3 variance=2.5 deviation(3)=0
}

// Contingency tables combine cellwise; identical variables carry
// maximal mutual information.
func ExampleContingency() {
	c, _ := stats.NewContingency(0, 4, 4, 0, 4, 4)
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 0.5, 1.5} {
		c.Update(v, v)
	}
	d := c.Derive()
	fmt.Printf("n=%d MI==HX: %v\n", d.N, d.MutualInfo == d.HX)
	// Output:
	// n=6 MI==HX: true
}
