package core

import (
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/sim"
	"insitu/internal/stats"
)

// fmtDigest is ResultDigest as fmt defines it: the crc64 of byValue's
// %v text, printed by %016x.
func fmtDigest(v any) string {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	fmt.Fprintf(h, "%v", byValue(v))
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkDigestText fails t unless the digester's text of v is byte for
// byte the %v text of byValue(v), and its token fmtDigest's.
func checkDigestText(t *testing.T, d *digester, v any) {
	t.Helper()
	want := fmt.Sprintf("%v", byValue(v))
	if got := string(d.appendText(nil, v)); got != want {
		t.Fatalf("digest text of %T:\n got %q\nwant %q", v, got, want)
	}
	if got, want := d.digest(v), fmtDigest(v); got != want {
		t.Fatalf("digest of %T: %s, fmt's %s", v, got, want)
	}
}

// oddFloats are the values whose shortest %v text is easiest to get
// wrong: NaN, the infinities, a negative zero, the smallest subnormal,
// and values either side of %v's exponent switch.
var oddFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324,
	1e21, 1e20, 1e-5, 1e-4, 1.23456789e8, 123456, 1234567, -0.1, math.MaxFloat64,
}

// randDerived draws a stats.Derived whose fields are each an odd float
// half the time and a random one of any magnitude otherwise.
func randDerived(rng *rand.Rand) stats.Derived {
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return oddFloats[rng.Intn(len(oddFloats))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	return stats.Derived{N: rng.Int63n(1<<40) - 1<<20, Min: f(), Max: f(), Mean: f(), Variance: f(), StdDev: f(), Skewness: f(), Kurtosis: f()}
}

// TestDigestTextMatchesFmt: the typed writers of the statistics map and
// the frame refs print exactly what %v prints — over random maps of the
// 14 simulation variables laced with NaN, ±Inf, -0, 5e-324, 1e21, 1e-5
// and 1.23456789e8, and over the nil, empty and Degraded forms, which a
// reused digester writes after longer texts.
func TestDigestTextMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var d digester
	for i := 0; i < 200; i++ {
		m := make(map[string]stats.Derived)
		for _, v := range sim.VarNames[:rng.Intn(len(sim.VarNames)+1)] {
			m[v] = randDerived(rng)
		}
		checkDigestText(t, &d, m)
		refs := make([]FrameRef, rng.Intn(9))
		for j := range refs {
			refs[j] = FrameRef{Var: sim.VarNames[rng.Intn(len(sim.VarNames))], Step: rng.Intn(2000) - 1000, Cam: fmt.Sprintf("cam%02d", j), Digest: fmt.Sprintf("%x", rng.Uint64())}
		}
		checkDigestText(t, &d, refs)
	}
	for _, v := range []any{
		map[string]stats.Derived(nil), map[string]stats.Derived{}, []FrameRef(nil), []FrameRef{},
		Degraded{Reason: "shed", Value: map[string]stats.Derived{"T": {N: 1, Mean: math.NaN()}}},
		Degraded{Reason: "shed", Value: []FrameRef{{Var: "T", Step: 1, Cam: "cam00", Digest: "ab"}}},
		&AutoCorrResult{Lags: []int{1, 2}, Corr: []float64{0.5, math.Inf(-1)}},
	} {
		checkDigestText(t, &d, v)
	}
}

// FuzzDigestTextMatchesFmt: for any keys, floats and strings, the typed
// writers' text is %v's.
func FuzzDigestTextMatchesFmt(f *testing.F) {
	f.Add("T", "Y_OH", int64(1024), 0.5, math.Inf(1), -0.0, 3, "cam00", "0123abcd")
	f.Add("", "a b:c]", int64(-1), math.NaN(), 5e-324, 1e21, -7, "", "{x y}")
	f.Fuzz(func(t *testing.T, k1, k2 string, n int64, a, b, c float64, step int, cam, digest string) {
		var d digester
		checkDigestText(t, &d, map[string]stats.Derived{
			k1: {N: n, Min: a, Max: b, Mean: c, Variance: a * b, StdDev: b - c, Skewness: a / c, Kurtosis: -a},
			k2: {N: -n, Min: c, Max: a, Mean: b},
		})
		checkDigestText(t, &d, []FrameRef{{Var: k1, Step: step, Cam: cam, Digest: digest}, {Var: k2, Step: -step, Cam: digest, Digest: cam}})
	})
}

// countedResult is a stored result that counts how often it is
// rendered into a digest text.
type countedResult struct{ n *int }

func (r countedResult) String() string {
	*r.n++
	return "counted"
}

// TestCommitDigestsOnceWhenReady is the guard of the commit digests on
// a pipeline with two journaled hybrid routes. While only the first has
// stored its step-s result, commitDigests reports not ready having
// digested nothing and allocated nothing. Once both are stored it
// digests each result exactly once, to ResultDigest's token, and a
// committed 14-variable statistics map plus 8 frame refs allocate at
// most 4 objects: the digest map and the two tokens.
func TestCommitDigestsOnceWhenReady(t *testing.T) {
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Recovery = &RecoveryConfig{Dir: t.TempDir()}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Register(&StatsHybrid{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(&AutoCorrHybrid{}); err != nil {
		t.Fatal(err)
	}
	first, second := p.routes[0], p.routes[1]
	const s = 3
	renders := 0
	first.results = map[int]any{s: countedResult{&renders}}
	if _, ready := p.commitDigests(s); ready {
		t.Fatal("step ready with the second route's result missing")
	}
	if renders != 0 {
		t.Errorf("a step that is not ready digested %d results, want 0", renders)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.commitDigests(s) }); allocs != 0 {
		t.Errorf("a step that is not ready allocates %v objects, want 0", allocs)
	}

	refs := make([]FrameRef, 8)
	for i := range refs {
		refs[i] = FrameRef{Var: "T", Step: s, Cam: fmt.Sprintf("cam%02d", i), Digest: fmt.Sprintf("%064x", i)}
	}
	second.results = map[int]any{s: refs}
	renders = 0
	digests, ready := p.commitDigests(s)
	if !ready {
		t.Fatal("step not ready with both results stored")
	}
	if renders != 1 {
		t.Errorf("a committed step rendered the first route's result %d times, want 1", renders)
	}
	want := map[string]string{first.name: fmtDigest(countedResult{new(int)}), second.name: fmtDigest(refs)}
	if fmt.Sprint(digests) != fmt.Sprint(want) {
		t.Errorf("digests %v, want %v", digests, want)
	}

	rng := rand.New(rand.NewSource(1))
	m := make(map[string]stats.Derived)
	for _, v := range sim.VarNames {
		m[v] = randDerived(rng)
	}
	if len(m) != 14 {
		t.Fatalf("%d statistics variables, want 14", len(m))
	}
	first.results[s] = m
	if allocs := testing.AllocsPerRun(100, func() { p.commitDigests(s) }); allocs > 4 {
		t.Errorf("committing a statistics map and 8 frame refs allocates %v objects, want at most 4", allocs)
	}
	if digests, _ := p.commitDigests(s); digests[first.name] != fmtDigest(m) || digests[second.name] != fmtDigest(refs) {
		t.Errorf("committed digests %v differ from fmt's", digests)
	}
}
