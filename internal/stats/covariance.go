package stats

import (
	"encoding/binary"
	"fmt"
	"math"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
)

// Covariance is a single-pass bivariate accumulator: means and centered
// second-order aggregates for a pair of variables, combinable in
// parallel like Moments. It is the building block for the
// auto-correlative statistics the paper lists as future work, which
// this library implements as an extension (see AutoCorrelator).
type Covariance struct {
	N     int64
	MeanX float64
	MeanY float64
	M2X   float64 // sum (x - meanX)^2
	M2Y   float64 // sum (y - meanY)^2
	CXY   float64 // sum (x - meanX)(y - meanY)
}

// Update folds one paired observation into the accumulator.
func (c *Covariance) Update(x, y float64) {
	c.N++
	n := float64(c.N)
	dx := x - c.MeanX
	dy := y - c.MeanY
	c.MeanX += dx / n
	c.MeanY += dy / n
	// Note the asymmetric update: dy uses the *old* meanY, the second
	// factor uses the *new* meanX, which is what keeps this one-pass
	// form exact.
	c.CXY += dx * (y - c.MeanY)
	c.M2X += dx * (x - c.MeanX)
	c.M2Y += dy * (y - c.MeanY)
}

// Combine merges another partial accumulator using the pairwise update
// formulas.
func (c *Covariance) Combine(o *Covariance) {
	if o == nil || o.N == 0 {
		return
	}
	if c.N == 0 {
		*c = *o
		return
	}
	na, nb := float64(c.N), float64(o.N)
	n := na + nb
	dx := o.MeanX - c.MeanX
	dy := o.MeanY - c.MeanY
	c.CXY += o.CXY + dx*dy*na*nb/n
	c.M2X += o.M2X + dx*dx*na*nb/n
	c.M2Y += o.M2Y + dy*dy*na*nb/n
	c.MeanX += dx * nb / n
	c.MeanY += dy * nb / n
	c.N += o.N
}

// Corr returns the Pearson correlation coefficient, 0 when either
// variance vanishes.
func (c *Covariance) Corr() float64 {
	if c.M2X <= 0 || c.M2Y <= 0 {
		return 0
	}
	return c.CXY / math.Sqrt(c.M2X*c.M2Y)
}

// covWireSize is the encoded size of one Covariance record.
const covWireSize = 6 * 8

// appendMarshal appends the accumulator's covWireSize-byte encoding
// to dst.
func (c *Covariance) appendMarshal(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.N))
	for _, v := range [...]float64{c.MeanX, c.MeanY, c.M2X, c.M2Y, c.CXY} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// UnmarshalCovariance reconstructs an accumulator.
func UnmarshalCovariance(p []byte) (*Covariance, error) {
	if len(p) < covWireSize {
		return nil, fmt.Errorf("%w: covariance too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	c := &Covariance{}
	c.N = int64(binary.LittleEndian.Uint64(p[:8]))
	c.MeanX = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	c.MeanY = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
	c.M2X = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
	c.M2Y = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
	c.CXY = math.Float64frombits(binary.LittleEndian.Uint64(p[40:]))
	return c, nil
}

// AutoCorrelator computes temporal autocorrelation of a per-point
// variable at a set of lags, single-pass over timesteps: the in-situ
// stage pairs the current snapshot with buffered earlier snapshots and
// updates one Covariance per lag; partial accumulators combine
// in-transit exactly like the descriptive-statistics models. This is
// the "hybrid in-situ/in-transit auto-correlative statistical
// technique" sketched in the paper's future work.
type AutoCorrelator struct {
	Lags []int
	accs []*Covariance
	// ring buffers the last max(Lags) snapshots of the local field.
	ring [][]float64
	head int
	seen int
}

// NewAutoCorrelator creates an accumulator for the given strictly
// positive lags (in timesteps).
func NewAutoCorrelator(lags ...int) (*AutoCorrelator, error) {
	if len(lags) == 0 {
		return nil, fmt.Errorf("stats: autocorrelator needs at least one lag")
	}
	maxLag := 0
	for _, l := range lags {
		if l < 1 {
			return nil, fmt.Errorf("stats: lag %d must be >= 1", l)
		}
		if l > maxLag {
			maxLag = l
		}
	}
	a := &AutoCorrelator{Lags: append([]int{}, lags...)}
	a.accs = make([]*Covariance, len(lags))
	for i := range a.accs {
		a.accs[i] = &Covariance{}
	}
	a.ring = make([][]float64, maxLag)
	return a, nil
}

// Push folds the next timestep's local snapshot into the per-lag
// accumulators. Snapshots must all have the same length.
func (a *AutoCorrelator) Push(snapshot []float64) {
	box := grid.NewBox(len(snapshot), 1, 1)
	a.PushBox(&grid.Field{Box: box, Data: snapshot}, box)
}

// PushBox folds the next timestep's snapshot, sub's cells of f (sub
// must be contained in f.Box), into the per-lag accumulators. It reads
// f in place, lag by lag and cell by cell in sub's x-fastest order, and
// then copies the snapshot into the ring slot it evicts, so once the
// ring is full a push allocates nothing. An empty slot is drawn from
// the slots released correlators handed back, so a warm run's ring
// allocates nothing either. Every push must cover the same number of
// cells.
func (a *AutoCorrelator) PushBox(f *grid.Field, sub grid.Box) {
	n := sub.Size()
	for li, lag := range a.Lags {
		if a.seen < lag {
			continue
		}
		prev := a.ring[(a.head-lag+len(a.ring)+len(a.ring))%len(a.ring)]
		acc := a.accs[li]
		for at := 0; at < n; {
			row := f.Row(sub, at, n)
			for i, x := range row {
				acc.Update(x, prev[at+i])
			}
			at += len(row)
		}
	}
	slot := a.ring[a.head][:0]
	if cap(slot) < n {
		if slot = ringSlots.Get(); cap(slot) < n {
			slot = make([]float64, 0, n)
		}
	}
	for at := 0; at < n; {
		row := f.Row(sub, at, n)
		slot = append(slot, row...)
		at += len(row)
	}
	a.ring[a.head] = slot
	a.head = (a.head + 1) % len(a.ring)
	a.seen++
}

// ringSlots holds the ring slots of released correlators: at most as
// many as pushes ever had to make.
var ringSlots bufpool.List[[]float64]

// Release hands the ring's slots back for later correlators' pushes and
// empties the ring, as before the first push; the accumulators keep
// what they learned.
func (a *AutoCorrelator) Release() {
	for i, slot := range a.ring {
		if slot != nil {
			ringSlots.Put(slot[:0])
		}
		a.ring[i] = nil
	}
	a.head, a.seen = 0, 0
}

// Acc returns the accumulator for the i-th registered lag.
func (a *AutoCorrelator) Acc(i int) *Covariance { return a.accs[i] }

// Combine merges another correlator with identical lags.
func (a *AutoCorrelator) Combine(o *AutoCorrelator) error {
	if len(a.Lags) != len(o.Lags) {
		return fmt.Errorf("stats: lag sets differ: %v vs %v", a.Lags, o.Lags)
	}
	for i, l := range a.Lags {
		if o.Lags[i] != l {
			return fmt.Errorf("stats: lag sets differ: %v vs %v", a.Lags, o.Lags)
		}
		a.accs[i].Combine(o.accs[i])
	}
	return nil
}

// Corr returns the autocorrelation estimates per registered lag.
func (a *AutoCorrelator) Corr() []float64 {
	out := make([]float64, len(a.accs))
	for i, acc := range a.accs {
		out[i] = acc.Corr()
	}
	return out
}

// MarshalSize returns the exact encoded size of the accumulators.
func (a *AutoCorrelator) MarshalSize() int { return 4 + len(a.Lags)*(4+covWireSize) }

// AppendMarshal appends the per-lag accumulators' encoding to dst and
// returns the extended slice (ring buffers are local state and are not
// shipped); with MarshalSize bytes of room in dst the pack is
// allocation-free.
func (a *AutoCorrelator) AppendMarshal(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Lags)))
	for i, l := range a.Lags {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l))
		dst = a.accs[i].appendMarshal(dst)
	}
	return dst
}

// UnmarshalAutoCorrelator reconstructs the shipped accumulators.
func UnmarshalAutoCorrelator(p []byte) (*AutoCorrelator, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: autocorrelator too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	a := &AutoCorrelator{}
	for i := 0; i < n; i++ {
		if len(p) < 4+covWireSize {
			return nil, fmt.Errorf("%w: autocorrelator record %d truncated", ErrCorruptPayload, i)
		}
		lag := int(binary.LittleEndian.Uint32(p[:4]))
		p = p[4:]
		acc, err := UnmarshalCovariance(p[:covWireSize])
		if err != nil {
			return nil, err
		}
		p = p[covWireSize:]
		a.Lags = append(a.Lags, lag)
		a.accs = append(a.accs, acc)
	}
	return a, nil
}
