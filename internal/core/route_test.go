package core

import (
	"sync/atomic"
	"testing"

	"insitu/internal/overload"
)

// asked counts how often the pipeline asks an analysis who it is.
type asked struct{ names, everys atomic.Int64 }

type countingHybrid struct {
	StatsHybrid
	asked
}

func (c *countingHybrid) Name() string { c.names.Add(1); return "counting hybrid" }
func (c *countingHybrid) Every() int   { c.everys.Add(1); return 2 }

type countingInSitu struct {
	StatsInSitu
	asked
}

func (c *countingInSitu) Name() string { c.names.Add(1); return "counting in-situ" }
func (c *countingInSitu) Every() int   { c.everys.Add(1); return 1 }

// TestAnalysisResolvedOnce: Register resolves an analysis into its
// route — name, cadence, faces — and nothing on the step path asks the
// Analysis value again, so the Name()/Every() call counts of a 3-step
// and a 30-step run are equal (they used to grow with steps × ranks).
// The admission plane is on, so the admission pass is covered too.
func TestAnalysisResolvedOnce(t *testing.T) {
	run := func(steps int) (h, s *asked) {
		cfg := DefaultConfig(testSimConfig(2, 2, 1))
		cfg.Overload = &overload.Config{}
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hyb, ins := &countingHybrid{}, &countingInSitu{}
		for _, a := range []Analysis{hyb, ins} {
			if err := p.Register(a); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := p.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rep.Results["counting hybrid"]); got != steps/2 {
			t.Fatalf("%d steps: %d hybrid results, want %d", steps, got, steps/2)
		}
		if got := len(rep.Results["counting in-situ"]); got != steps {
			t.Fatalf("%d steps: %d in-situ results, want %d", steps, got, steps)
		}
		return &hyb.asked, &ins.asked
	}
	h3, s3 := run(3)
	h30, s30 := run(30)
	for _, c := range []struct {
		what        string
		short, long int64
	}{
		{"hybrid Name()", h3.names.Load(), h30.names.Load()},
		{"hybrid Every()", h3.everys.Load(), h30.everys.Load()},
		{"in-situ Name()", s3.names.Load(), s30.names.Load()},
		{"in-situ Every()", s3.everys.Load(), s30.everys.Load()},
	} {
		if c.short != c.long || c.short == 0 {
			t.Errorf("%s called %d times over 3 steps and %d over 30, want equal and non-zero", c.what, c.short, c.long)
		}
	}
}

// TestRegisterRefusesDuplicateName: the name keys a route's results,
// descriptors, tasks and codec stream, so a second analysis under it is
// refused — returned to the caller and, for one who drops it, by Run.
func TestRegisterRefusesDuplicateName(t *testing.T) {
	p, err := NewPipeline(DefaultConfig(testSimConfig(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Register(&StatsHybrid{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(&StatsHybrid{EveryN: 2}); err == nil {
		t.Fatal("second analysis under the same name was accepted")
	}
	if _, err := p.Run(1); err == nil {
		t.Fatal("Run succeeded after a refused registration")
	}
}
