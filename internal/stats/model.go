package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

// Model is a multi-variable primary model: one Moments accumulator per
// simulation variable (the paper's runs track 14 variables).
type Model struct {
	vars  map[string]*Moments
	order []string // registration order, for deterministic iteration
}

// NewModel returns an empty multi-variable model.
func NewModel() *Model {
	return &Model{vars: make(map[string]*Moments)}
}

// Var returns the accumulator for name, creating it on first use.
func (mo *Model) Var(name string) *Moments {
	m, ok := mo.vars[name]
	if !ok {
		m = NewMoments()
		mo.vars[name] = m
		mo.order = append(mo.order, name)
	}
	return m
}

// Names returns the variable names in deterministic (sorted) order.
func (mo *Model) Names() []string {
	out := append([]string{}, mo.order...)
	sort.Strings(out)
	return out
}

// LearnField folds every point of a field into the variable named by
// the field.
func (mo *Model) LearnField(f *grid.Field) {
	mo.Var(f.Name).UpdateBatch(f.Data)
}

// LearnBoxParallel folds the points of a field inside sub into the
// variable named by the field, in place, using the chunk-parallel
// moment kernel (Moments.UpdateBoxParallel). An in-situ stage learns
// the rank's ghosted field restricted to its owned block this way.
func (mo *Model) LearnBoxParallel(f *grid.Field, sub grid.Box) {
	mo.Var(f.Name).UpdateBoxParallel(f, sub)
}

// LearnFieldParallel folds every point of a field: LearnBoxParallel
// over the field's whole box. It matches LearnField bitwise for fields
// of at most one chunk; larger fields agree to floating-point
// reassociation.
func (mo *Model) LearnFieldParallel(f *grid.Field) {
	mo.LearnBoxParallel(f, f.Box)
}

// Combine merges another multi-variable model into mo.
func (mo *Model) Combine(o *Model) {
	for _, name := range o.Names() {
		mo.Var(name).Combine(o.vars[name])
	}
}

// DeriveAll computes the detailed model per variable.
func (mo *Model) DeriveAll() map[string]Derived {
	out := make(map[string]Derived, len(mo.vars))
	for name, m := range mo.vars {
		out[name] = Derive(m)
	}
	return out
}

// momentsWireSize is the fixed encoding size of one Moments record.
const momentsWireSize = 7 * 8

// MarshalSize returns the exact encoded size of the model.
func (mo *Model) MarshalSize() int {
	n := 4
	for _, name := range mo.order {
		n += 4 + len(name) + momentsWireSize
	}
	return n
}

// AppendMarshal appends the model's encoding to dst and returns the
// extended slice. Encoding writes Float64bits words directly into the
// destination; with a preallocated dst the pack is allocation-free
// apart from the sorted name list.
func (mo *Model) AppendMarshal(dst []byte) []byte {
	names := mo.Names()
	off := len(dst)
	need := mo.MarshalSize()
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(names)))
	off += 4
	for _, name := range names {
		binary.LittleEndian.PutUint32(dst[off:], uint32(len(name)))
		off += 4
		copy(dst[off:], name)
		off += len(name)
		m := mo.vars[name]
		binary.LittleEndian.PutUint64(dst[off:], uint64(m.N))
		off += 8
		for _, v := range []float64{m.Min, m.Max, m.Mean, m.M2, m.M3, m.M4} {
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst
}

// Marshal serializes the model into the compact binary form shipped to
// the in-transit derive stage. The encoded size for 14 variables is a
// few hundred bytes per rank — the data reduction that makes the
// hybrid statistics variant nearly free to move.
func (mo *Model) Marshal() []byte {
	return mo.AppendMarshal(make([]byte, 0, mo.MarshalSize()))
}

// ErrCorruptPayload is wrapped by every error the payload decoders
// (UnmarshalModel, UnmarshalContingency, UnmarshalCovariance,
// UnmarshalAutoCorrelator) return: the bytes are not an encoding this
// package produced.
var ErrCorruptPayload = errors.New("stats: corrupt payload")

// UnmarshalModel reconstructs a model from Marshal's output.
func UnmarshalModel(p []byte) (*Model, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: model too short (%d bytes)", ErrCorruptPayload, len(p))
	}
	nvars := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	mo := NewModel()
	for v := 0; v < nvars; v++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: model truncated at variable %d", ErrCorruptPayload, v)
		}
		nameLen := int(binary.LittleEndian.Uint32(p[:4]))
		p = p[4:]
		if len(p) < nameLen+momentsWireSize {
			return nil, fmt.Errorf("%w: model record %d truncated", ErrCorruptPayload, v)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		m := mo.Var(name)
		m.N = int64(binary.LittleEndian.Uint64(p[:8]))
		m.Min = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		m.Max = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		m.Mean = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
		m.M2 = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
		m.M3 = math.Float64frombits(binary.LittleEndian.Uint64(p[40:]))
		m.M4 = math.Float64frombits(binary.LittleEndian.Uint64(p[48:]))
		p = p[momentsWireSize:]
	}
	return mo, nil
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
// models it pulled from the in-situ ranks.
func AggregateSerial(partials [][]byte) (*Model, error) {
	global := NewModel()
	for i, p := range partials {
		mo, err := UnmarshalModel(p)
		if err != nil {
			return nil, fmt.Errorf("stats: partial model %d: %w", i, err)
		}
		global.Combine(mo)
	}
	return global, nil
}
