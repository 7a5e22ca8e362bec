package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzUnmarshalPayloads asserts the contract of the four payload
// decoders a staging bucket runs on bytes pulled from the ranks: each
// returns an error wrapping ErrCorruptPayload or succeeds — it never
// panics — and what it accepts derives without panicking. The model
// decoder, Model.CombineMarshalled, folds the bytes into a fresh model
// and into a reused one that held other variables and was Reset: both
// accept or both refuse, and on accepted bytes their DeriveAll agree
// bit for bit, so nothing a reused model held leaks into its result.
// The fixed-width encodings (contingency, covariance, autocorrelator)
// also marshal back to the bytes they were read from.
func FuzzUnmarshalPayloads(f *testing.F) {
	mo := NewModel()
	mo.Var("T").UpdateBatch([]float64{1, 2, 3.5})
	mo.Var("Y_OH").UpdateBatch([]float64{0.25})
	f.Add(marshal(mo))

	c, err := NewContingency(-1, 1, 4, 0, 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Update(float64(i)/10-1, float64(i%7)/3)
	}
	f.Add(c.AppendMarshal(nil))
	// 56 bytes declaring 4 x 2^62 cells, whose product wraps to zero,
	// and one observation, so Derive sizes its marginals by the bins.
	hostile := make([]byte, 7*8)
	binary.LittleEndian.PutUint64(hostile[32:], 4)
	binary.LittleEndian.PutUint64(hostile[40:], 1<<62)
	binary.LittleEndian.PutUint64(hostile[48:], 1)
	f.Add(hostile)

	cv := &Covariance{}
	for i := 0; i < 10; i++ {
		cv.Update(float64(i), math.Sqrt(float64(i)))
	}
	f.Add(cv.appendMarshal(nil))

	ac, err := NewAutoCorrelator(1, 3)
	if err != nil {
		f.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		ac.Push([]float64{float64(step), float64(step * step), 1})
	}
	f.Add(ac.AppendMarshal(nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		typed := func(name string, err error) bool {
			t.Helper()
			if err != nil && !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("%s: untyped error %v", name, err)
			}
			return err == nil
		}
		roundTrip := func(name string, out []byte) {
			t.Helper()
			if !bytes.Equal(out, p[:len(out)]) {
				t.Fatalf("%s: decoded payload marshals to different bytes", name)
			}
		}
		fresh, reused := NewModel(), NewModel()
		reused.Var("T").UpdateBatch([]float64{7, 8})
		reused.Var("u").Update(-1)
		reused.Reset()
		reused.Var("T").Update(9)
		reused.Var("P").Update(0.5)
		reused.Reset()
		freshErr, reusedErr := fresh.CombineMarshalled(p), reused.CombineMarshalled(p)
		if typed("model", freshErr) != typed("model (reused)", reusedErr) {
			t.Fatalf("model: a fresh model returns %v, a reused one %v", freshErr, reusedErr)
		}
		if freshErr == nil {
			want, got := fresh.DeriveAll(), reused.DeriveAll()
			if len(got) != len(want) {
				t.Fatalf("model: a reused model derives %d variables, a fresh one %d", len(got), len(want))
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || derivedBits(g) != derivedBits(w) {
					t.Fatalf("model: %q derives %+v in a reused model, %+v in a fresh one", name, g, w)
				}
			}
		}
		if c, err := UnmarshalContingency(p); typed("contingency", err) {
			c.Derive()
			roundTrip("contingency", c.AppendMarshal(nil))
		}
		if cv, err := UnmarshalCovariance(p); typed("covariance", err) {
			cv.Corr()
			roundTrip("covariance", cv.appendMarshal(nil))
		}
		if ac, err := UnmarshalAutoCorrelator(p); typed("autocorrelator", err) {
			ac.Corr()
			roundTrip("autocorrelator", ac.AppendMarshal(nil))
		}
	})
}

// derivedBits is d with every float as its bits, comparable with ==
// whatever NaNs a hostile payload decodes to.
func derivedBits(d Derived) [8]uint64 {
	return [8]uint64{uint64(d.N), math.Float64bits(d.Min), math.Float64bits(d.Max), math.Float64bits(d.Mean),
		math.Float64bits(d.Variance), math.Float64bits(d.StdDev), math.Float64bits(d.Skewness), math.Float64bits(d.Kurtosis)}
}
