package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics the driver bounds. The contract wants every
// one of them on every workload, never 0, and steady between runs of
// the same code: on the reference host every wall-clock metric spread
// by 10-40 % between runs (a neighbour slows the CPU by up to 30 % for
// minutes at a time, and fsync latency varies fourfold), so by ISSUE
// 12's own rule they are demoted to per-layer metrics under the same
// names, and what is bounded here are the costs that repeat: bytes on
// the wire, modeled movement time and allocation per step, plus the
// mandatory set-up time. The bounds live in BENCHMARK.json alone.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wire_bytes_per_step", "B", "lower"},
	{"move_modeled_us_per_step", "us_modeled", "lower"},
	{"alloc_kb_per_step", "KB", "lower"},
}

// setupChunk is how many fresh LoadConfig+Build pairs are timed before
// each pass. Spreading them over the run, not bunching them at its
// start, keeps a momentary slowdown of the host out of the estimate.
const setupChunk = 60

// setupQuantile is the order statistic of a run's build timings that
// setup_s reports. A build is a fraction of a millisecond, and what
// disturbs it (page faults on fresh heap, a neighbour on the core) only
// ever adds time: between runs of the same code the lower decile moved
// half as much as the median (5-11 % against 8-20 %).
const setupQuantile = 0.1

// setupTimes are the timings of every fresh build of a run, seconds.
type setupTimes struct{ load, build, total []float64 }

// seedStride spaces the simulation seeds of consecutive --seed values,
// so that the passes of two runs never share an input.
const seedStride = 100

// simSeed is the i-th simulation seed of the run. The per-layer run
// compares its passes digest for digest, so they all simulate input 0.
// The passes of the end-to-end run each take the next: what a codec
// makes of a field follows the data (wire_bytes_per_step of single
// inputs spread by 3 % on wire-codec), and averaging over inputs
// steadies it.
func (h *harness) simSeed(i int) int64 { return h.seed*seedStride + int64(i) }

// sample builds the workload n times from fresh directories.
func (s *setupTimes) sample(h *harness, name string, n int) error {
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(h.tmpRoot, "setup-")
		if err != nil {
			return err
		}
		path, err := h.generate(name, dir, h.simSeed(0))
		if err != nil {
			return err
		}
		// A user builds once, on a fresh heap. Back-to-back builds
		// instead trigger a collection every second or third sample,
		// which triples that sample and parks the median between two
		// modes; collecting first keeps every sample in the fresh mode.
		runtime.GC()
		st, err := h.setup(h.root, path)
		if err != nil {
			return err
		}
		if err := st.built.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
		s.load = append(s.load, st.load.Seconds())
		s.build = append(s.build, st.make.Seconds())
		s.total = append(s.total, (st.load + st.make).Seconds())
	}
	return nil
}

// measured is what the repeated passes of one run produced.
type measured struct {
	passes []*pass
	alone  []float64 // sim-alone steps/s after each pass, when asked for
	setup  setupTimes
}

// timedPasses repeats set-up sampling and the workload's pass until the
// budget is used up. The end-to-end run (layers false) needs one pass,
// gives each pass another input (simSeed) and keeps the viewer fleet out
// of the process, whose allocation it measures. The per-layer run needs
// a plain and a traced pass, which alternate (odd passes are traced)
// and must agree digest for digest; it polls a store workload with the
// fleet and follows each pass with a quarter-length run of the
// simulation alone, the base of overhead_x.
func (h *harness) timedPasses(name string, seconds float64, layers bool) (*measured, error) {
	var m measured
	atLeast := 1
	if layers {
		atLeast = 2
	}
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < atLeast || time.Now().Before(end); i++ {
		if err := m.setup.sample(h, name, setupChunk); err != nil {
			return nil, err
		}
		o := passOpts{simSeed: h.simSeed(i)}
		if layers {
			o = passOpts{simSeed: h.simSeed(0), traced: i%2 == 1, fleet: true}
		}
		p, err := h.runPass(name, o)
		if err != nil {
			return nil, err
		}
		if layers && len(m.passes) > 0 {
			n, diff := sameDigests(m.passes[0], p)
			h.checks.attempt(n)
			h.checks.fail(diff, "%s: %d of %d result digests differ between passes", name, diff, n)
		}
		m.passes = append(m.passes, p)
		if layers {
			rate, err := h.simAlone(p.sims, max(p.steps/4, 1))
			if err != nil {
				return nil, err
			}
			m.alone = append(m.alone, rate)
		}
	}
	return &m, nil
}

// endToEnd is the --trace 0 run: tracing off, every end-to-end metric.
// The costs that follow the input are means over the passes' inputs;
// allocation, which a collection cycle can disturb, is the median.
func (h *harness) endToEnd(name string, seconds float64) (map[string]float64, error) {
	r, err := h.timedPasses(name, seconds, false)
	if err != nil {
		return nil, err
	}
	var wire, modeled, alloc []float64
	for _, p := range r.passes {
		steps := float64(p.totalSteps())
		wire = append(wire, float64(p.net.BytesMoved)/steps)
		modeled = append(modeled, us(p.total.MoveModeled)/steps)
		alloc = append(alloc, float64(p.allocBytes)/1024/steps)
	}
	fmt.Printf("samples passes=%d setups=%d GOMAXPROCS=%d\n", len(r.passes), len(r.setup.total), runtime.GOMAXPROCS(0))
	return map[string]float64{
		"setup_s":                  quantile(r.setup.total, setupQuantile),
		"wire_bytes_per_step":      mean(wire),
		"move_modeled_us_per_step": mean(modeled),
		"alloc_kb_per_step":        median(alloc),
	}, nil
}
