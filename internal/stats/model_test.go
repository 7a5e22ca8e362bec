package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/grid"
)

func fieldOf(name string, b grid.Box, fn func(i, j, k int) float64) *grid.Field {
	f := grid.NewField(name, b)
	for idx := range f.Data {
		i, j, k := b.Point(idx)
		f.Data[idx] = fn(i, j, k)
	}
	return f
}

// learnField folds every point of a field into the variable named by
// the field, serially.
func learnField(mo *Model, f *grid.Field) { mo.Var(f.Name).UpdateBatch(f.Data) }

// marshal is a model's encoding in a buffer of its own.
func marshal(mo *Model) []byte { return mo.AppendMarshal(nil) }

func TestModelLearnFields(t *testing.T) {
	b := grid.NewBox(4, 4, 4)
	mo := NewModel()
	learnField(mo, fieldOf("T", b, func(i, j, k int) float64 { return float64(i) }))
	learnField(mo, fieldOf("P", b, func(i, j, k int) float64 { return 2 }))
	if got := mo.Var("T").N; got != 64 {
		t.Fatalf("T count: want 64, got %d", got)
	}
	d := mo.DeriveAll()
	if d["P"].Variance != 0 || d["P"].Mean != 2 {
		t.Fatalf("P stats wrong: %+v", d["P"])
	}
	if d["T"].Mean != 1.5 {
		t.Fatalf("T mean: want 1.5, got %g", d["T"].Mean)
	}
	names := mo.names
	if len(names) != 2 || names[0] != "P" || names[1] != "T" {
		t.Fatalf("names wrong: %v", names)
	}
}

func TestModelMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mo := NewModel()
	for _, name := range []string{"T", "Y_H2", "Y_OH"} {
		m := mo.Var(name)
		for i := 0; i < 100; i++ {
			m.Update(rng.NormFloat64())
		}
	}
	got := NewModel()
	if err := got.CombineMarshalled(marshal(mo)); err != nil {
		t.Fatal(err)
	}
	for _, name := range mo.names {
		a, b := *mo.Var(name), *got.Var(name)
		if a != b {
			t.Fatalf("variable %s: %+v vs %+v", name, a, b)
		}
	}
	if err := NewModel().CombineMarshalled(nil); err == nil {
		t.Fatal("empty payload must error")
	}
	if err := NewModel().CombineMarshalled(marshal(mo)[:9]); err == nil {
		t.Fatal("truncated payload must error")
	}
}

// TestParallelLearnConsistency: the fully in-situ variant must produce
// an identical global model on every rank, equal to the serial model.
func TestParallelLearnConsistency(t *testing.T) {
	const ranks = 6
	b := grid.NewBox(12, 6, 6)
	dc, err := grid.NewDecomp(b, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := fieldOf("T", b, func(i, j, k int) float64 {
		return float64(i*i) - 0.3*float64(j) + 0.01*float64(k*k*k)
	})
	serial := NewModel()
	learnField(serial, full)

	results := make([]*Model, ranks)
	comm.Run(ranks, func(r *comm.Rank) {
		local := NewModel()
		learnField(local, full.Extract(dc.Block(r.ID())))
		results[r.ID()] = ParallelLearn(r, local)
	})
	want := Derive(serial.Var("T"))
	for rank, mo := range results {
		got := Derive(mo.Var("T"))
		if got.N != want.N || !approxEq(got.Mean, want.Mean, 1e-12) ||
			!approxEq(got.Variance, want.Variance, 1e-9) ||
			!approxEq(got.Skewness, want.Skewness, 1e-9) ||
			!approxEq(got.Kurtosis, want.Kurtosis, 1e-9) {
			t.Fatalf("rank %d: parallel learn differs:\n got %+v\nwant %+v", rank, got, want)
		}
	}
	// Consistency: all ranks share the exact same (deterministic
	// reduction tree) result.
	for rank := 1; rank < ranks; rank++ {
		if *results[rank].Var("T") != *results[0].Var("T") {
			t.Fatalf("rank %d model differs bitwise from rank 0", rank)
		}
	}
}

// TestHybridEqualsInSitu: the hybrid learn(in-situ)+derive(in-transit)
// path must match the fully in-situ path.
func TestHybridEqualsInSitu(t *testing.T) {
	b := grid.NewBox(10, 10, 5)
	dc, err := grid.NewDecomp(b, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := fieldOf("OH", b, func(i, j, k int) float64 {
		return float64((i+1)*(j+2)) / float64(k+3)
	})
	// Hybrid: each rank marshals its partial model; a serial process
	// aggregates.
	var partials [][]byte
	for r := 0; r < dc.Ranks(); r++ {
		local := NewModel()
		learnField(local, full.Extract(dc.Block(r)))
		partials = append(partials, marshal(local))
	}
	global := NewModel()
	if err := AggregateSerial(global, partials); err != nil {
		t.Fatal(err)
	}
	serial := NewModel()
	learnField(serial, full)
	g, s := Derive(global.Var("OH")), Derive(serial.Var("OH"))
	if g.N != s.N || !approxEq(g.Mean, s.Mean, 1e-12) || !approxEq(g.Variance, s.Variance, 1e-9) {
		t.Fatalf("hybrid aggregation differs: %+v vs %+v", g, s)
	}
}

// unmarshalModel is the model decoder AggregateSerial used before it
// folded encodings with CombineMarshalled: decode a whole partial model,
// then Combine it. It is the oracle of TestAggregateSerialMatchesOracle.
func unmarshalModel(p []byte) (*Model, error) {
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

// TestAggregateSerialMatchesOracle: folding the encodings record by
// record gives, bit for bit, the model that decoding each partial model
// whole and combining it gave — on random partial models over random
// variable subsets, some variables empty, aggregated into one reused
// model.
func TestAggregateSerialMatchesOracle(t *testing.T) {
	names := []string{"T", "u", "P", "Y_H2", "Y_OH", "Y_N2"}
	rng := rand.New(rand.NewSource(42))
	got := NewModel()
	for trial := 0; trial < 50; trial++ {
		partials := make([][]byte, 1+rng.Intn(8))
		for i := range partials {
			mo := NewModel()
			for _, name := range names {
				if rng.Intn(3) == 0 {
					continue
				}
				m := mo.Var(name)
				for n := rng.Intn(40); n > 0; n-- {
					m.Update(rng.NormFloat64()*10 + float64(trial))
				}
			}
			partials[i] = marshal(mo)
		}
		want := NewModel()
		for _, p := range partials {
			mo, err := unmarshalModel(p)
			if err != nil {
				t.Fatal(err)
			}
			want.Combine(mo)
		}
		if err := AggregateSerial(got, partials); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.names, want.names) {
			t.Fatalf("trial %d: variables %v, oracle %v", trial, got.names, want.names)
		}
		for _, name := range want.names {
			if a, b := *got.Var(name), *want.Var(name); a != b {
				t.Fatalf("trial %d %s: %+v, oracle %+v", trial, name, a, b)
			}
		}
		if !bytes.Equal(marshal(got), marshal(want)) {
			t.Fatalf("trial %d: encodings differ", trial)
		}
	}
}

// TestModelResetReuses: a Reset model holds none of its old variables,
// learns and encodes exactly as a fresh one, and once warm neither
// learning and packing nor folding encodings allocates.
func TestModelResetReuses(t *testing.T) {
	b := grid.NewBox(6, 5, 4)
	fields := map[string]*grid.Field{}
	for _, name := range []string{"T", "Y_OH", "P"} {
		fields[name] = fieldOf(name, b, func(i, j, k int) float64 { return float64(i*j) - float64(k) + float64(len(name)) })
	}
	mo := NewModel()
	for _, name := range []string{"T", "Y_OH"} {
		learnField(mo, fields[name])
	}
	mo.Reset()
	learnField(mo, fields["P"])
	learnField(mo, fields["T"])
	fresh := NewModel()
	learnField(fresh, fields["P"])
	learnField(fresh, fields["T"])
	if got := mo.names; !slices.Equal(got, []string{"P", "T"}) {
		t.Fatalf("a Reset model holds %v, want [P T]", got)
	}
	if !bytes.Equal(marshal(mo), marshal(fresh)) {
		t.Fatal("a Reset model encodes differently from a fresh one")
	}

	buf := make([]byte, 0, 1024)
	learn := testing.AllocsPerRun(20, func() {
		mo.Reset()
		learnField(mo, fields["T"])
		learnField(mo, fields["P"])
		buf = mo.AppendMarshal(buf[:0])
	})
	encoded := marshal(fresh)
	fold := testing.AllocsPerRun(20, func() {
		mo.Reset()
		if err := mo.CombineMarshalled(encoded); err != nil {
			t.Fatal(err)
		}
	})
	if learn != 0 || fold != 0 {
		t.Errorf("a warm model allocates %v objects to learn and pack, %v to fold an encoding, want 0 and 0", learn, fold)
	}
}

func TestAggregateSerialError(t *testing.T) {
	if err := AggregateSerial(NewModel(), [][]byte{{1, 2}}); err == nil {
		t.Fatal("malformed partial must error")
	}
}

// TestDataReductionRatio documents the hybrid variant's payload size:
// a 14-variable model is a few hundred bytes regardless of block size.
func TestDataReductionRatio(t *testing.T) {
	b := grid.NewBox(20, 20, 20)
	mo := NewModel()
	vars := []string{"T", "u", "v", "w", "P", "Y_H2", "Y_O2", "Y_H2O", "Y_OH",
		"Y_HO2", "Y_H2O2", "Y_H", "Y_O", "Y_N2"}
	for _, name := range vars {
		learnField(mo, fieldOf(name, b, func(i, j, k int) float64 { return float64(i + j + k) }))
	}
	payload := len(marshal(mo))
	raw := len(vars) * b.Size() * 8
	if payload >= raw/1000 {
		t.Fatalf("model payload %d bytes is not a >1000x reduction of %d raw bytes", payload, raw)
	}
}
