package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"insitu/internal/mergetree"
)

// The three merge-tree routes over one variable and threshold: their
// payloads all lead with the same subtree. T spans about [0.3, 0.65]
// in driveInSitu's run, so the threshold cuts real features.
func mergeTreeRoutes() []HybridAnalysis {
	return []HybridAnalysis{
		&TopologyHybrid{Var: "T"},
		&FeatureStatsHybrid{SegVar: "T", CondVar: "Y_OH", Threshold: 0.5},
		&TrackingHybrid{Var: "T", Threshold: 0.5},
	}
}

// mergeTreePayloads runs a 2-rank simulation for two steps and returns
// each route's step-2 in-situ payloads, indexed [route][rank]. Step 2
// gives tracking raw matches against step 1.
func mergeTreePayloads(t testing.TB, routes []HybridAnalysis) [][2][]byte {
	t.Helper()
	out := make([][2][]byte, len(routes))
	driveInSitu(t, 2, func(ctx *Ctx, step int) {
		for i, r := range routes {
			p, err := r.InSituStage(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			out[i][ctx.Comm.ID()] = p
		}
	})
	return out
}

// withCounts returns the subtree p leads with, followed by the u64
// counts and nothing else: a tracking payload whose lists claim more
// records than it carries.
func withCounts(t testing.TB, p []byte, counts ...uint64) []byte {
	t.Helper()
	var st mergetree.Subtree
	if _, err := st.Unmarshal(p); err != nil {
		t.Fatal(err)
	}
	out := st.AppendMarshal(nil)
	for _, n := range counts {
		out = binary.LittleEndian.AppendUint64(out, n)
	}
	return out
}

// TestMergeTreePayloadsShareOneFraming: for one rank and step over the
// same variable, the topology payload is a byte prefix of the
// feature-statistics and tracking payloads, which carry their extras
// after it and nothing before it. The extras are not empty, so the
// fuzz seeds built from these payloads exercise every list.
func TestMergeTreePayloadsShareOneFraming(t *testing.T) {
	routes := mergeTreeRoutes()
	payloads := mergeTreePayloads(t, routes)
	for rank := range 2 {
		topo := payloads[0][rank]
		for i, r := range routes[1:] {
			p := payloads[i+1][rank]
			if len(p) <= len(topo) || !bytes.HasPrefix(p, topo) {
				t.Errorf("rank %d: the %s payload (%d B) does not start with the topology payload (%d B)", rank, r.Name(), len(p), len(topo))
			}
		}
		ps, err := mergetree.UnmarshalFeaturePartials(payloads[1][rank][len(topo):])
		if err != nil || len(ps) == 0 {
			t.Errorf("rank %d: %d feature partials (%v), want some", rank, len(ps), err)
		}
		reps, raw, err := unpackTracking(payloads[2][rank][len(topo):], nil, nil)
		if err != nil || len(reps) == 0 || len(raw) == 0 {
			t.Errorf("rank %d: %d representatives and %d matches (%v), want some of each", rank, len(reps), len(raw), err)
		}
	}
}

// TestMergeTreeInTransitRejectsHostileCounts: a feature-statistics or
// tracking payload whose counts do not fit the bytes after its subtree
// fails with an error wrapping mergetree.ErrCorruptPayload, before
// anything is allocated for the claimed records.
func TestMergeTreeInTransitRejectsHostileCounts(t *testing.T) {
	routes := mergeTreeRoutes()
	payloads := mergeTreePayloads(t, routes)
	for _, c := range hostilePayloads(t, routes, payloads) {
		_, err := routes[c.route].InTransit(2, [][]byte{payloads[c.route][0], c.p})
		if !errors.Is(err, mergetree.ErrCorruptPayload) {
			t.Errorf("%s, %s: error %v, want one wrapping ErrCorruptPayload", routes[c.route].Name(), c.name, err)
		}
	}
}

type hostilePayload struct {
	name  string
	route int
	p     []byte
}

// hostilePayloads builds, from rank 1's real payloads, payloads of the
// feature-statistics (route 1) and tracking (route 2) routes whose
// counts or lengths do not fit.
func hostilePayloads(t testing.TB, routes []HybridAnalysis, payloads [][2][]byte) []hostilePayload {
	fs, tr := payloads[1][1], payloads[2][1]
	topoLen := len(payloads[0][1])
	partials := bytes.Clone(fs)
	binary.LittleEndian.PutUint32(partials[topoLen:], math.MaxUint32)
	return []hostilePayload{
		{"2^62 representatives", 2, withCounts(t, tr, 1<<62, 0)},
		{"2^63 matches", 2, withCounts(t, tr, 0, 1<<63)},
		{"2^64-1 matches", 2, withCounts(t, tr, 0, math.MaxUint64)},
		{"no match count", 2, withCounts(t, tr, 0)},
		{"truncated matches", 2, tr[:len(tr)-1]},
		{"bare subtree", 2, tr[:topoLen]},
		{"truncated subtree", 2, tr[:topoLen-1]},
		{"2^32-1 partials", 1, partials},
		{"truncated partials", 1, fs[:len(fs)-1]},
		{"bare subtree", 1, fs[:topoLen]},
		{"truncated subtree", 1, fs[:topoLen-1]},
	}
}

// decodeMergeTreePayload decodes p the way route r's in-transit stage
// does, without gluing.
func decodeMergeTreePayload(r HybridAnalysis, p []byte) error {
	var st mergetree.Subtree
	extras, err := st.Unmarshal(p)
	if err != nil {
		return err
	}
	switch r.(type) {
	case *FeatureStatsHybrid:
		_, err = mergetree.UnmarshalFeaturePartials(extras)
	case *TrackingHybrid:
		_, _, err = unpackTracking(extras, nil, nil)
	}
	return err
}

// FuzzMergeTreePayloads: the in-transit stage of every merge-tree route
// fed two arbitrary payloads returns a result or an error, never a
// panic, and a payload that does not decode fails it with an error
// wrapping mergetree.ErrCorruptPayload. Any other error (a glue or
// resolution failure on subtrees that do not fit together) is allowed
// only when both payloads decode.
func FuzzMergeTreePayloads(f *testing.F) {
	routes := mergeTreeRoutes()
	payloads := mergeTreePayloads(f, routes)
	for i, p := range payloads {
		f.Add(uint8(i), p[0], p[1])
	}
	for _, c := range hostilePayloads(f, routes, payloads) {
		f.Add(uint8(c.route), payloads[c.route][0], c.p)
	}
	f.Fuzz(func(t *testing.T, route uint8, p0, p1 []byte) {
		r := routes[int(route)%len(routes)]
		_, err := r.InTransit(2, [][]byte{p0, p1})
		if err == nil || errors.Is(err, mergetree.ErrCorruptPayload) {
			return
		}
		for i, p := range [][]byte{p0, p1} {
			if derr := decodeMergeTreePayload(r, p); derr != nil {
				t.Fatalf("%s: payload %d does not decode (%v), but the stage failed with %v", r.Name(), i, derr, err)
			}
		}
	})
}
