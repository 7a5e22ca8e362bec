package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/overload"
)

var errPlantedStage = errors.New("planted in-situ stage failure")

// failingInSitu is an in-situ route whose stage fails at one step.
type failingInSitu struct{ failAt int }

func (f *failingInSitu) Name() string { return "failing in-situ" }
func (f *failingInSitu) Every() int   { return 1 }

func (f *failingInSitu) RunInSitu(ctx *Ctx) (any, error) {
	if ctx.Step == f.failAt {
		return nil, errPlantedStage
	}
	return ctx.Step, nil
}

// TestEveryStageIsRecordedOnce pins what each stage writes to its
// sinks, as identities that hold whatever the host timing: the sim
// step and the whole step once per step, an in-situ record for every
// due step that was not shed (a fallback, one with no RunFallback, and
// a stage that failed count too), one sim.step span per step, one
// task.pull and one task.run child under every successful attempt,
// movement and in-transit time on every hybrid route, and the
// checkpoint's write time. The two hybrid routes share the two-credit
// supply of TestOverloadCreditFloorFallsBackInSitu, so some of their
// steps fall back in-situ.
func TestEveryStageIsRecordedOnce(t *testing.T) {
	const steps = 6
	cfg := DefaultConfig(testSimConfig(2, 1, 1))
	cfg.Buckets = 1
	cfg.DSServers = 1
	cfg.Overload = &overload.Config{
		QueueBound: 1,
		Breaker:    overload.BreakerConfig{FailureThreshold: 1 << 20, Cooldown: time.Hour},
		Ladder: overload.LadderConfig{
			QueueHigh: 1 << 20, QueueLow: 1 << 19,
			DegradeAfter: 1 << 20, RecoverAfter: 1,
		},
	}
	cfg.Recovery = &RecoveryConfig{Dir: t.TempDir(), Every: 2}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := p.EnableObs().Recorder()
	v := NewVizHybrid(24, 18, 8)
	v.Var = "T"
	slow := &slowTransitAnalysis{delay: 15 * time.Millisecond} // no RunFallback
	failing := &failingInSitu{failAt: 3}
	analyses := []Analysis{slow, v, failing}
	for _, a := range analyses {
		if err := p.Register(a); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := p.Run(steps)
	if !errors.Is(err, errPlantedStage) {
		t.Fatalf("run error = %v, want the planted stage failure", err)
	}
	if rep.Overload.StepsFallback == 0 {
		t.Fatal("no hybrid step fell back in-situ: the fallback records go untested")
	}

	if _, _, n := rep.Metrics.SimTime(); n != steps {
		t.Errorf("SimTime reports %d steps, want %d", n, steps)
	}
	walls := rep.Metrics.StepWalls()
	for s := 1; s <= steps; s++ {
		if _, ok := walls[s]; !ok || len(walls) != steps {
			t.Errorf("StepWalls = %v, want one entry for each of steps 1..%d", walls, steps)
			break
		}
	}

	for _, a := range analyses {
		due, shed := 0, 0
		for s := 1; s <= steps; s++ {
			if s%max(a.Every(), 1) != 0 {
				continue
			}
			due++
			if d, ok := rep.Result(a.Name(), s).(Degraded); ok && strings.HasPrefix(d.Reason, "shed") {
				shed++
			}
		}
		if got := rep.Metrics.Total(a.Name()).Steps; got != due-shed {
			t.Errorf("%s: %d in-situ records, want %d due steps - %d shed", a.Name(), got, due, shed)
		}
	}

	simSpans := 0
	for _, s := range rec.SpansCat(obs.CatSim) {
		if s.Name == "sim.step" {
			simSpans++
		}
	}
	if simSpans != steps {
		t.Errorf("%d sim.step spans, want %d", simSpans, steps)
	}

	tasks := rec.SpansCat(obs.CatTask)
	children := map[int64]map[string]int{}
	for _, s := range tasks {
		if s.Parent != 0 {
			if children[s.Parent] == nil {
				children[s.Parent] = map[string]int{}
			}
			children[s.Parent][s.Name]++
		}
	}
	ok := 0
	for _, s := range tasks {
		if s.Name != "task.attempt" || attr(s, "outcome") != "ok" {
			continue
		}
		ok++
		if c := children[s.ID]; c["task.pull"] != 1 || c["task.run"] != 1 {
			t.Errorf("attempt %d (%s step %s): children %v, want one task.pull and one task.run",
				s.ID, attr(s, "analysis"), attr(s, "step"), c)
		}
	}
	if ok == 0 {
		t.Error("no successful task.attempt span")
	}

	for _, a := range []Analysis{slow, v} {
		b := rep.Metrics.Total(a.Name())
		if b.MoveBytes <= 0 || b.MoveWall <= 0 || b.InTransit <= 0 {
			t.Errorf("%s: moved %d B in %v, in-transit %v; want all > 0", a.Name(), b.MoveBytes, b.MoveWall, b.InTransit)
		}
	}

	if rep.Recovery == nil || rep.Recovery.CheckpointWriteSeconds <= 0 {
		t.Errorf("recovery report %+v, want a checkpoint write time > 0", rep.Recovery)
	}
}

// attr returns a span attribute's value, or "" when the span has none.
func attr(s obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
