package faults

import (
	"testing"
)

// drain queries the injector with a fixed call sequence and returns
// the decision kinds.
func drain(inj *Injector, n int) []Kind {
	out := make([]Kind, n)
	for i := 0; i < n; i++ {
		out[i] = inj.Decide(i%4, 10+i%3, i%3, 4096).Kind
	}
	return out
}

// TestDeterministicSequence: the same seed and call sequence must
// reproduce the same fault sequence; a different seed must not.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{
		Seed:    42,
		Default: Rates{Drop: 0.1, Timeout: 0.1, Corrupt: 0.1, Slowdown: 0.1},
	}
	a := drain(New(cfg), 500)
	b := drain(New(cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := drain(New(cfg), 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical fault sequence")
	}
}

// TestRatesRoughlyHonored: with a 50% drop rate, roughly half of the
// decisions must be drops.
func TestRatesRoughlyHonored(t *testing.T) {
	inj := New(Config{Seed: 7, Default: Rates{Drop: 0.5}})
	ks := drain(inj, 2000)
	drops := 0
	for _, k := range ks {
		if k == Drop {
			drops++
		}
	}
	if drops < 800 || drops > 1200 {
		t.Fatalf("50%% drop rate produced %d/2000 drops", drops)
	}
	c := inj.Counters()
	if c.ByKind[Drop] != int64(drops) || c.ByKind[Drop]+c.ByKind[None] != 2000 {
		t.Fatalf("counters %+v inconsistent with observed %d drops", c, drops)
	}
}

// TestPartitionWindow: inside the window, transfers touching a listed
// endpoint fail with Partition; others and out-of-window transfers do
// not.
func TestPartitionWindow(t *testing.T) {
	inj := New(Config{
		Seed:       1,
		Partitions: []Window{{From: 10, Until: 20, Endpoints: []int{5}}},
	})
	for i := 0; i < 30; i++ {
		var d Decision
		if i%2 == 0 {
			d = inj.Decide(5, 1, 0, 64) // touches partitioned endpoint
		} else {
			d = inj.Decide(2, 1, 0, 64)
		}
		inWindow := i >= 10 && i < 20 && i%2 == 0
		if (d.Kind == Partition) != inWindow {
			t.Fatalf("decision %d: kind %v, want partition=%v", i, d.Kind, inWindow)
		}
	}
}

// TestPerEndpointAndPerPathOverrides: endpoint schedules beat path
// schedules beat the default.
func TestPerEndpointAndPerPathOverrides(t *testing.T) {
	inj := New(Config{
		Seed:        3,
		Default:     Rates{},
		PerPath:     map[int]Rates{2: {Drop: 1}},
		PerEndpoint: map[int]Rates{9: {Timeout: 1}},
	})
	if d := inj.Decide(0, 1, 0, 64); d.Kind != None {
		t.Fatalf("default schedule must be clean, got %v", d.Kind)
	}
	if d := inj.Decide(0, 1, 2, 64); d.Kind != Drop {
		t.Fatalf("path-2 schedule must drop, got %v", d.Kind)
	}
	if d := inj.Decide(9, 1, 2, 64); d.Kind != Timeout {
		t.Fatalf("endpoint-9 schedule must time out (beating path), got %v", d.Kind)
	}
	if d := inj.Decide(1, 9, 0, 64); d.Kind != Timeout {
		t.Fatalf("destination endpoint-9 schedule must time out, got %v", d.Kind)
	}
}

// TestCorruptDecisionShape: corruption decisions carry in-range bit
// offsets and a timeout carries a positive delay.
func TestCorruptDecisionShape(t *testing.T) {
	inj := New(Config{Seed: 11, Default: Rates{Corrupt: 1}, CorruptBits: 5})
	d := inj.Decide(0, 1, 1, 128)
	if d.Kind != Corrupt || len(d.FlipBits) != 5 {
		t.Fatalf("want 5-bit corruption, got %+v", d)
	}
	for _, b := range d.FlipBits {
		if b < 0 || b >= 128*8 {
			t.Fatalf("bit offset %d out of payload range", b)
		}
	}
	// Zero-size payloads cannot be corrupted.
	if d := inj.Decide(0, 1, 1, 0); d.Kind != None {
		t.Fatalf("zero-size corruption must downgrade to none, got %v", d.Kind)
	}
	inj2 := New(Config{Seed: 11, Default: Rates{Timeout: 1}})
	if d := inj2.Decide(0, 1, 1, 64); d.Kind != Timeout || d.Delay <= 0 {
		t.Fatalf("timeout must carry a positive delay, got %+v", d)
	}
	inj3 := New(Config{Seed: 11, Default: Rates{Slowdown: 1}})
	if d := inj3.Decide(0, 1, 1, 64); d.Kind != Slowdown || d.Factor <= 1 {
		t.Fatalf("slowdown must carry a factor > 1, got %+v", d)
	}
}

// TestSlowdownWindow: inside the window every covered attempt is
// slowed with the window's factor (falling back to SlowdownFactor);
// an empty endpoint list covers every transfer; outside the window
// transfers pass untouched.
func TestSlowdownWindow(t *testing.T) {
	inj := New(Config{
		Seed:           1,
		SlowdownFactor: 25,
		Slowdowns: []SlowdownWindow{
			{From: 0, Until: 2, Endpoints: []int{7}, Factor: 100},
			{From: 2, Until: 4}, // all endpoints, default factor
		},
	})
	// idx 0: endpoint 7 covered, explicit factor.
	if d := inj.Decide(7, 1, 0, 64); d.Kind != Slowdown || d.Factor != 100 {
		t.Fatalf("idx 0: %+v, want slowdown factor 100", d)
	}
	// idx 1: endpoint not listed -> unperturbed.
	if d := inj.Decide(3, 4, 0, 64); d.Kind != None {
		t.Fatalf("idx 1: %+v, want none", d)
	}
	// idx 2,3: the match-all window with the config default factor.
	for i := 0; i < 2; i++ {
		if d := inj.Decide(3, 4, 0, 64); d.Kind != Slowdown || d.Factor != 25 {
			t.Fatalf("idx %d: %+v, want slowdown factor 25", 2+i, d)
		}
	}
	// idx 4: window closed.
	if d := inj.Decide(7, 1, 0, 64); d.Kind != None {
		t.Fatalf("idx 4: %+v, want none", d)
	}
}

// TestPartitionBeatsSlowdown: when both windows cover an attempt the
// partition wins — a cut link cannot also be merely slow.
func TestPartitionBeatsSlowdown(t *testing.T) {
	inj := New(Config{
		Seed:       1,
		Partitions: []Window{{From: 0, Until: 1, Endpoints: []int{2}}},
		Slowdowns:  []SlowdownWindow{{From: 0, Until: 1}},
	})
	if d := inj.Decide(2, 5, 0, 64); d.Kind != Partition {
		t.Fatalf("got %+v, want partition", d)
	}
}
