package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// Model is a multi-variable primary model: one Moments accumulator per
// simulation variable (the paper's runs track 14 variables). The zero
// value is an empty model ready for use.
type Model struct {
	vars  map[string]*variable // the variables held, and those Reset emptied
	names []string             // the held variables, sorted
}

// variable is a named accumulator; held is false from a Reset until the
// name is used again.
type variable struct {
	Moments
	name string
	held bool
}

// NewModel returns an empty multi-variable model.
func NewModel() *Model { return &Model{} }

// Var returns the accumulator for name, creating it on first use.
func (mo *Model) Var(name string) *Moments {
	v, ok := mo.vars[name]
	if !ok {
		if mo.vars == nil {
			mo.vars = make(map[string]*variable)
		}
		v = &variable{name: name}
		mo.vars[name] = v
	}
	if !v.held {
		v.Moments, v.held = *NewMoments(), true
		i, _ := slices.BinarySearch(mo.names, name)
		mo.names = slices.Insert(mo.names, i, v.name)
	}
	return &v.Moments
}

// Reset empties the model but keeps its accumulators for reuse by the
// same names, so a warm model allocates nothing and a reuse with other
// variables sees none of the old. Those unused a whole cycle are dropped.
func (mo *Model) Reset() {
	for name, v := range mo.vars {
		if !v.held {
			delete(mo.vars, name)
		}
		v.held = false
	}
	mo.names = mo.names[:0]
}

// LearnBoxParallel folds the points of a field inside sub into the
// variable named by the field, in place, using the chunk-parallel
// moment kernel (Moments.UpdateBoxParallel). An in-situ stage learns
// the rank's ghosted field restricted to its owned block this way.
func (mo *Model) LearnBoxParallel(f *grid.Field, sub grid.Box) {
	mo.Var(f.Name).UpdateBoxParallel(f, sub)
}

// LearnFieldParallel folds every point of a field: LearnBoxParallel
// over the field's whole box. It matches a serial UpdateBatch over the
// field's data bitwise for fields of at most one chunk; larger fields
// agree to floating-point reassociation.
func (mo *Model) LearnFieldParallel(f *grid.Field) {
	mo.LearnBoxParallel(f, f.Box)
}

// Combine merges another multi-variable model into mo, variable by
// variable in sorted order.
func (mo *Model) Combine(o *Model) {
	for _, name := range o.names {
		mo.Var(name).Combine(&o.vars[name].Moments)
	}
}

// DeriveAll computes the detailed model per variable.
func (mo *Model) DeriveAll() map[string]Derived {
	out := make(map[string]Derived, len(mo.names))
	for _, name := range mo.names {
		out[name] = Derive(&mo.vars[name].Moments)
	}
	return out
}

// momentsWireSize is the fixed encoding size of one Moments record.
const momentsWireSize = 7 * 8

// MarshalSize returns the exact encoded size of the model.
func (mo *Model) MarshalSize() int {
	n := 4
	for _, name := range mo.names {
		n += 4 + len(name) + momentsWireSize
	}
	return n
}

// AppendMarshal appends the model's encoding — the compact binary form
// shipped to the in-transit derive stage — to dst and returns the
// extended slice. The encoded size for 14 variables is a few hundred
// bytes per rank: the data reduction that makes the hybrid statistics
// variant nearly free to move. Encoding writes Float64bits words
// directly into the destination, so with a preallocated dst the pack
// allocates nothing.
func (mo *Model) AppendMarshal(dst []byte) []byte {
	off, need := len(dst), mo.MarshalSize()
	dst = slices.Grow(dst, need)[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(mo.names)))
	off += 4
	for _, name := range mo.names {
		binary.LittleEndian.PutUint32(dst[off:], uint32(len(name)))
		off += 4
		copy(dst[off:], name)
		off += len(name)
		m := &mo.vars[name].Moments
		binary.LittleEndian.PutUint64(dst[off:], uint64(m.N))
		off += 8
		for _, v := range []float64{m.Min, m.Max, m.Mean, m.M2, m.M3, m.M4} {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst
}

// ErrCorruptPayload is wrapped by every error the payload decoders
// (Model.CombineMarshalled, UnmarshalContingency, UnmarshalCovariance,
// UnmarshalAutoCorrelator) return: the bytes are not an encoding this
// package produced.
var ErrCorruptPayload = errors.New("stats: corrupt payload")

// CombineMarshalled folds an encoded model (AppendMarshal's output) into mo:
// each record decodes into a Moments on the stack and combines in
// encoded order, the sorted order Combine uses, so the result is
// bitwise Combine's. Other bytes fail with an error wrapping
// ErrCorruptPayload, the records before the damaged one folded in.
func (mo *Model) CombineMarshalled(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("%w: model too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	nvars := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	for v := 0; v < nvars; v++ {
		if len(p) < 4 {
			return fmt.Errorf("%w: model truncated at variable %d", ErrCorruptPayload, v)
		}
		nameLen := int(binary.LittleEndian.Uint32(p[:4]))
		p = p[4:]
		if len(p) < nameLen+momentsWireSize {
			return fmt.Errorf("%w: model record %d truncated", ErrCorruptPayload, v)
		}
		var name string
		if owned, ok := mo.vars[string(p[:nameLen])]; ok {
			name = owned.name // no copy of a name the model owns
		} else {
			name = string(p[:nameLen])
		}
		p = p[nameLen:]
		m := Moments{N: int64(binary.LittleEndian.Uint64(p))}
		for i, w := range []*float64{&m.Min, &m.Max, &m.Mean, &m.M2, &m.M3, &m.M4} {
			*w = math.Float64frombits(binary.LittleEndian.Uint64(p[8+8*i:]))
		}
		mo.Var(name).Combine(&m)
		p = p[momentsWireSize:]
	}
	return nil
}

// ParallelLearn performs the fully in-situ variant's learn stage: an
// all-to-all-consistent global model obtained by an allreduce over
// per-rank partial models. Every rank returns the same global model,
// the paper's "all-to-all communication ... to guarantee a consistent
// model ... across all processors".
func ParallelLearn(r *comm.Rank, local *Model) *Model {
	res := r.Allreduce(local, func(a, b any) any {
		merged := NewModel()
		merged.Combine(a.(*Model))
		merged.Combine(b.(*Model))
		return merged
	})
	return res.(*Model)
}

// AggregateSerial performs the hybrid variant's in-transit derive-side
// aggregation: the single serial staging process combines all partial
// models it pulled from the in-situ ranks. It Resets global and folds
// every partial into it, so a staging bucket reuses one model.
func AggregateSerial(global *Model, partials [][]byte) error {
	global.Reset()
	for i, p := range partials {
		if err := global.CombineMarshalled(p); err != nil {
			return fmt.Errorf("stats: partial model %d: %w", i, err)
		}
	}
	return nil
}
