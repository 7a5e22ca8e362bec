package stats

import (
	"encoding/binary"
	"fmt"
	"math"

	"insitu/internal/grid"
	"insitu/internal/parallel"
)

// Contingency is a single-pass bivariate contingency table over
// fixed-width bins, after the parallel contingency statistics of
// Pébay, Thompson & Bennett (CLUSTER 2010) that the paper cites among
// its statistics algorithms. Tables over the same binning combine by
// cellwise addition, so the learn stage parallelizes exactly like the
// moment accumulators: per-rank tables in-situ, one combine in-transit.
type Contingency struct {
	// Binning of each variable: [Lo, Hi) split into Bins equal cells,
	// with underflow/overflow clamped into the edge cells.
	XLo, XHi float64
	YLo, YHi float64
	XBins    int
	YBins    int

	N      int64
	Counts []int64 // XBins*YBins, x-fastest
}

// NewContingency creates an empty table.
func NewContingency(xlo, xhi float64, xbins int, ylo, yhi float64, ybins int) (*Contingency, error) {
	if xbins < 1 || ybins < 1 {
		return nil, fmt.Errorf("stats: contingency needs >= 1 bin per axis")
	}
	if !(xhi > xlo) || !(yhi > ylo) {
		return nil, fmt.Errorf("stats: contingency needs non-empty ranges")
	}
	return &Contingency{
		XLo: xlo, XHi: xhi, YLo: ylo, YHi: yhi,
		XBins: xbins, YBins: ybins,
		Counts: make([]int64, xbins*ybins),
	}, nil
}

// Reset empties the table and keeps its binning and counts' storage, so
// a table reused from step to step allocates nothing.
func (c *Contingency) Reset() {
	clear(c.Counts)
	c.N = 0
}

func (c *Contingency) bin(v, lo, hi float64, bins int) int {
	i := int(float64(bins) * (v - lo) / (hi - lo))
	if i < 0 {
		return 0
	}
	if i >= bins {
		return bins - 1
	}
	return i
}

// Update folds one paired observation into the table.
func (c *Contingency) Update(x, y float64) {
	bx := c.bin(x, c.XLo, c.XHi, c.XBins)
	by := c.bin(y, c.YLo, c.YHi, c.YBins)
	c.Counts[bx+c.XBins*by]++
	c.N++
}

// UpdateBatch folds paired slices (same length).
func (c *Contingency) UpdateBatch(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("stats: contingency batch length mismatch %d vs %d", len(xs), len(ys))
	}
	for i := range xs {
		c.Update(xs[i], ys[i])
	}
	return nil
}

// UpdateBoxParallel bins the paired points of fx and fy inside sub,
// reading both fields where they lie (typically two ghosted fields
// restricted to the rank's owned block). Above updateChunk points each
// fixed-width chunk of the linearized sub-box fills a private table on
// the shared worker pool, and the tables merge by cellwise addition in
// chunk order. Counts are integers, so the result is bitwise identical
// to UpdateBatch over the extracted blocks at any pool width.
func (c *Contingency) UpdateBoxParallel(fx, fy *grid.Field, sub grid.Box) error {
	n := sub.Size()
	if n <= updateChunk {
		c.updateRows(fx, fy, sub, 0, n)
		return nil
	}
	nc := (n + updateChunk - 1) / updateChunk
	parts := make([]*Contingency, nc)
	parallel.ForChunks(n, updateChunk, func(ch, lo, hi int) {
		p := &Contingency{
			XLo: c.XLo, XHi: c.XHi, YLo: c.YLo, YHi: c.YHi,
			XBins: c.XBins, YBins: c.YBins,
			Counts: make([]int64, c.XBins*c.YBins),
		}
		p.updateRows(fx, fy, sub, lo, hi)
		parts[ch] = p
	})
	for _, p := range parts {
		if err := c.Combine(p); err != nil {
			return err
		}
	}
	return nil
}

// updateRows bins cells [lo, hi) of sub's linearization, row by row.
func (c *Contingency) updateRows(fx, fy *grid.Field, sub grid.Box, lo, hi int) {
	for at := lo; at < hi; {
		xs, ys := fx.Row(sub, at, hi), fy.Row(sub, at, hi)
		for i := range xs {
			c.Update(xs[i], ys[i])
		}
		at += len(xs)
	}
}

// compatible reports whether two tables share a binning.
func (c *Contingency) compatible(o *Contingency) bool {
	return c.XLo == o.XLo && c.XHi == o.XHi && c.YLo == o.YLo && c.YHi == o.YHi &&
		c.XBins == o.XBins && c.YBins == o.YBins
}

// Combine merges another table with identical binning.
func (c *Contingency) Combine(o *Contingency) error {
	if o == nil || o.N == 0 {
		return nil
	}
	if !c.compatible(o) {
		return fmt.Errorf("stats: contingency binnings differ")
	}
	for i, v := range o.Counts {
		c.Counts[i] += v
	}
	c.N += o.N
	return nil
}

// ContingencyDerived holds the derived information-theoretic and
// test quantities.
type ContingencyDerived struct {
	N          int64
	HX, HY     float64 // marginal entropies (nats)
	HXY        float64 // joint entropy
	MutualInfo float64 // I(X;Y) = HX + HY - HXY, clamped at 0
	ChiSquare  float64 // Pearson chi-squared statistic for independence
	DoF        int     // (XBins-1)*(YBins-1)
	CramersV   float64 // effect size in [0,1]
}

// Derive computes entropies, mutual information and the chi-squared
// independence statistic — the derive stage for contingency models.
func (c *Contingency) Derive() ContingencyDerived {
	d := ContingencyDerived{N: c.N, DoF: (c.XBins - 1) * (c.YBins - 1)}
	if c.N == 0 {
		return d
	}
	n := float64(c.N)
	mx := make([]float64, c.XBins)
	my := make([]float64, c.YBins)
	for by := 0; by < c.YBins; by++ {
		for bx := 0; bx < c.XBins; bx++ {
			v := float64(c.Counts[bx+c.XBins*by])
			mx[bx] += v
			my[by] += v
			if v > 0 {
				p := v / n
				d.HXY -= p * math.Log(p)
			}
		}
	}
	for _, v := range mx {
		if v > 0 {
			p := v / n
			d.HX -= p * math.Log(p)
		}
	}
	for _, v := range my {
		if v > 0 {
			p := v / n
			d.HY -= p * math.Log(p)
		}
	}
	d.MutualInfo = d.HX + d.HY - d.HXY
	if d.MutualInfo < 0 {
		d.MutualInfo = 0 // floating-point guard
	}
	// Pearson chi-squared over cells with nonzero expectation.
	for by := 0; by < c.YBins; by++ {
		for bx := 0; bx < c.XBins; bx++ {
			e := mx[bx] * my[by] / n
			if e <= 0 {
				continue
			}
			o := float64(c.Counts[bx+c.XBins*by])
			d.ChiSquare += (o - e) * (o - e) / e
		}
	}
	k := min(c.XBins, c.YBins)
	if k > 1 && n > 0 {
		d.CramersV = math.Sqrt(d.ChiSquare / (n * float64(k-1)))
	}
	return d
}

// MarshalSize returns the exact encoded size of the table.
func (c *Contingency) MarshalSize() int { return 7*8 + 8*len(c.Counts) }

// AppendMarshal appends the table's encoding to dst and returns the
// extended slice; with a preallocated dst the pack is allocation-free.
func (c *Contingency) AppendMarshal(dst []byte) []byte {
	off := len(dst)
	need := c.MarshalSize()
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	for _, f := range []float64{c.XLo, c.XHi, c.YLo, c.YHi} {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(f))
		off += 8
	}
	for _, v := range []uint64{uint64(c.XBins), uint64(c.YBins), uint64(c.N)} {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	for _, v := range c.Counts {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v))
		off += 8
	}
	return dst
}

// UnmarshalContingency reverses AppendMarshal. The bin counts are bounded
// against the bytes that follow them by division, so no pair of counts
// can overflow their product into a table the payload does not hold.
func UnmarshalContingency(p []byte) (*Contingency, error) {
	const hdr = 7 * 8
	if len(p) < hdr {
		return nil, fmt.Errorf("%w: contingency too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	f := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
	}
	c := &Contingency{
		XLo: f(0), XHi: f(8), YLo: f(16), YHi: f(24),
		XBins: int(binary.LittleEndian.Uint64(p[32:])),
		YBins: int(binary.LittleEndian.Uint64(p[40:])),
		N:     int64(binary.LittleEndian.Uint64(p[48:])),
	}
	cells := (len(p) - hdr) / 8
	if c.XBins < 1 || c.YBins < 1 || c.XBins > cells || c.YBins > cells/c.XBins {
		return nil, fmt.Errorf("%w: %dx%d contingency cells in %d bytes", ErrCorruptPayload, c.XBins, c.YBins, len(p)-hdr)
	}
	c.Counts = make([]int64, c.XBins*c.YBins)
	for i := range c.Counts {
		c.Counts[i] = int64(binary.LittleEndian.Uint64(p[hdr+8*i:]))
	}
	return c, nil
}
