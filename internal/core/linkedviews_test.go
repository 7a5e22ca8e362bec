package core

import "testing"

// TestLinkedViews runs two simultaneous hybrid visualization instances
// with different variables and transfer functions — the paper's "multiple
// instances of each visualization mode ... enabling scientists to
// explore different aspects of simulation and analysis data in
// linked-views".
func TestLinkedViews(t *testing.T) {
	const steps = 2
	simCfg := testSimConfig(2, 2, 1)
	sink := newMemSink(true)
	cfg := DefaultConfig(simCfg)
	cfg.Store = sink
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := NewVizHybrid(16, 12, 2)
	front.Tag = "temperature-front"
	side := NewVizHybrid(16, 12, 2)
	side.Tag = "OH-side"
	side.Var = "Y_OH"
	side.AutoRange = true // the fixed window covers temperatures, not OH
	p.Register(front)
	p.Register(side)

	rep, err := p.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Result(front.Name(), steps)
	b := rep.Result(side.Name(), steps)
	if a == nil || b == nil {
		t.Fatal("one of the linked views produced no image")
	}
	if front.Name() == side.Name() {
		t.Fatal("tags must disambiguate instance names")
	}
	imgA, imgB := sink.image(t, a), sink.image(t, b)
	same := true
	for i := range imgA.Pix {
		if imgA.Pix[i] != imgB.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different variables/views must yield different images")
	}
}

// TestPipelineReleasesPinnedMemory: after a run drains, every
// intermediate region registered by the in-situ stages must have been
// released — the simulation's scratch-space constraint from §III.
func TestPipelineReleasesPinnedMemory(t *testing.T) {
	simCfg := testSimConfig(2, 2, 1)
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(&StatsHybrid{})
	p.Register(NewTopologyHybrid())
	p.Register(NewVizHybrid(16, 12, 2))
	if _, err := p.Run(4); err != nil {
		t.Fatal(err)
	}
	if n := p.PinnedRegions(); n != 0 {
		t.Fatalf("%d intermediate regions still pinned after drain", n)
	}
}
