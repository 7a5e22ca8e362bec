// Package stats implements the numerically stable, single-pass,
// parallel descriptive-statistics algorithms of Bennett, Pébay, Roe &
// Thompson (CLUSTER 2009) that the paper deploys in-situ and
// in-transit, organized in the four-stage Learn / Derive / Assess /
// Test design pattern of its Figure 4. Learn is the only stage that
// requires inter-process communication: partial models (cardinality,
// extrema, and centered aggregates up to fourth order) are exchanged
// and combined with the pairwise update formulas.
package stats

import (
	"fmt"
	"math"

	"insitu/internal/grid"
	"insitu/internal/parallel"
)

// Moments is the primary statistical model for one variable: the
// single-pass accumulator of cardinality, extrema and centered sums
// M2..M4 about the running mean. The zero value is an empty model
// ready for use.
type Moments struct {
	N    int64   // number of observations
	Min  float64 // minimum observed value
	Max  float64 // maximum observed value
	Mean float64 // running mean
	M2   float64 // sum (x - mean)^2
	M3   float64 // sum (x - mean)^3
	M4   float64 // sum (x - mean)^4
}

// NewMoments returns an empty model. Min/Max are initialized to the
// empty-set conventions +Inf/-Inf.
func NewMoments() *Moments {
	return &Moments{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Update folds a single observation into the model using the
// incremental (n -> n+1) one-pass update.
func (m *Moments) Update(x float64) {
	if m.N == 0 && m.Min == 0 && m.Max == 0 {
		// Zero-value struct: adopt empty-set extrema conventions.
		m.Min, m.Max = math.Inf(1), math.Inf(-1)
	}
	n1 := float64(m.N)
	m.N++
	n := float64(m.N)
	delta := x - m.Mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.Mean += deltaN
	m.M4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.M2 - 4*deltaN*m.M3
	m.M3 += term1*deltaN*(n-2) - 3*deltaN*m.M2
	m.M2 += term1
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
}

// UpdateBatch folds a slice of observations into the model.
func (m *Moments) UpdateBatch(xs []float64) {
	for _, x := range xs {
		m.Update(x)
	}
}

// updateChunk is the observation-count threshold above which the batch
// kernels go parallel, and the fixed partition width they use. Because
// the partition depends only on the input length — never on the worker
// count — the chunked result is identical on every machine: per-chunk
// partial models are combined in ascending chunk order, the paper's
// in-situ reduction shape (learn is "the only stage that requires
// inter-process communication"; Combine is its pairwise update).
const updateChunk = 1 << 14

// UpdateBoxParallel folds the points of f inside sub into the model,
// reading them where they lie in f (typically a rank's ghosted field
// restricted to its owned block): the observations are those of
// f.Extract(sub).Data, in that x-fastest order, and nothing is copied.
// Above updateChunk points the shared worker pool takes over: each
// fixed-width chunk of the linearized sub-box accumulates an
// independent partial model, and the partials fold into m in chunk
// order via Combine. The result is deterministic (width-independent)
// and agrees with the serial fold to floating-point reassociation —
// the acceptance bound is 1e-12 on derived moments. Sub-boxes of at
// most one chunk take the serial path and match UpdateBatch bitwise.
func (m *Moments) UpdateBoxParallel(f *grid.Field, sub grid.Box) {
	n := sub.Size()
	if n <= updateChunk {
		m.updateRows(f, sub, 0, n)
		return
	}
	nc := (n + updateChunk - 1) / updateChunk
	parts := make([]Moments, nc)
	parallel.ForChunks(n, updateChunk, func(c, lo, hi int) {
		parts[c] = Moments{Min: math.Inf(1), Max: math.Inf(-1)}
		parts[c].updateRows(f, sub, lo, hi)
	})
	for c := range parts {
		m.Combine(&parts[c])
	}
}

// updateRows folds cells [lo, hi) of sub's linearization, row by row.
func (m *Moments) updateRows(f *grid.Field, sub grid.Box, lo, hi int) {
	for at := lo; at < hi; {
		row := f.Row(sub, at, hi)
		m.UpdateBatch(row)
		at += len(row)
	}
}

// Combine merges another partial model into m using the pairwise
// update formulas (Pébay 2008), the operation the parallel learn stage
// reduces with. It is associative and commutative up to floating-point
// rounding.
func (m *Moments) Combine(o *Moments) {
	if o == nil || o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	na, nb := float64(m.N), float64(o.N)
	n := na + nb
	delta := o.Mean - m.Mean
	delta2 := delta * delta
	delta3 := delta2 * delta
	delta4 := delta2 * delta2

	mean := m.Mean + delta*nb/n
	M2 := m.M2 + o.M2 + delta2*na*nb/n
	M3 := m.M3 + o.M3 + delta3*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.M2-nb*m.M2)/n
	M4 := m.M4 + o.M4 + delta4*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*delta2*(na*na*o.M2+nb*nb*m.M2)/(n*n) +
		4*delta*(na*o.M3-nb*m.M3)/n

	m.N += o.N
	m.Mean = mean
	m.M2 = M2
	m.M3 = M3
	m.M4 = M4
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
}

// String implements fmt.Stringer with a compact summary.
func (m *Moments) String() string {
	return fmt.Sprintf("n=%d min=%.6g max=%.6g mean=%.6g M2=%.6g", m.N, m.Min, m.Max, m.Mean, m.M2)
}

// Derived is the detailed statistical model computed by the derive
// stage from a minimal (Moments) model: the classical descriptive
// statistics scientists consume.
type Derived struct {
	N        int64
	Min      float64
	Max      float64
	Mean     float64
	Variance float64 // unbiased sample variance
	StdDev   float64
	Skewness float64 // g1 = sqrt(n) M3 / M2^(3/2)
	Kurtosis float64 // excess kurtosis g2 = n M4 / M2^2 - 3
}

// Derive computes the detailed model. It requires no communication and
// is where the hybrid variant's in-transit stage does its (tiny) work.
func Derive(m *Moments) Derived {
	d := Derived{N: m.N, Min: m.Min, Max: m.Max, Mean: m.Mean}
	if m.N > 1 {
		d.Variance = m.M2 / float64(m.N-1)
		d.StdDev = math.Sqrt(d.Variance)
	}
	if m.M2 > 0 && m.N > 0 {
		n := float64(m.N)
		d.Skewness = math.Sqrt(n) * m.M3 / math.Pow(m.M2, 1.5)
		d.Kurtosis = n*m.M4/(m.M2*m.M2) - 3
	}
	return d
}

// Assessment annotates one observation relative to a model.
type Assessment struct {
	Value     float64
	Deviation float64 // (x - mean) / stddev, 0 when stddev == 0
	Extreme   bool    // |deviation| > the threshold AssessOne was given
}

// AssessOne annotates an observation with its standardized deviation
// from the model, marking a value beyond extremeSigma standard
// deviations — the assess stage of the four-stage pattern. It is
// embarrassingly parallel: each observation is assessed alone.
func AssessOne(x float64, d Derived, extremeSigma float64) Assessment {
	a := Assessment{Value: x}
	if d.StdDev > 0 {
		a.Deviation = (x - d.Mean) / d.StdDev
		a.Extreme = math.Abs(a.Deviation) > extremeSigma
	}
	return a
}

// TestResult is the output of the test stage.
type TestResult struct {
	Statistic float64
	PValue    float64
	Reject    bool // at the 5% level
}

// JarqueBera computes the Jarque–Bera normality test statistic from a
// derived model — the test stage: given a model (and implicitly the
// data that produced it), compute a test statistic for hypothesis
// testing. Under H0 (normality) the statistic is asymptotically
// chi-squared with 2 degrees of freedom, so p = exp(-JB/2).
func JarqueBera(d Derived) TestResult {
	n := float64(d.N)
	jb := n / 6 * (d.Skewness*d.Skewness + d.Kurtosis*d.Kurtosis/4)
	p := math.Exp(-jb / 2)
	return TestResult{Statistic: jb, PValue: p, Reject: p < 0.05}
}
