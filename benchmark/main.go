// Command benchmark is the repo's one end-to-end benchmark: it drives
// four config-declared workloads through the public construction path
// (registry.LoadConfig -> registry.Build -> Run / Resume), prints every
// metric BENCHMARK.json names with its unit, checks the runs' outputs
// and exits non-zero when a check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"insitu/internal/obs"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed for every tenant's simulation and the viewer fleet")
		seconds  = flag.Float64("seconds", 20, "measuring time per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics with the traced run")
		aa       = flag.Bool("aa", false, "run the end-to-end set twice on the same code and compare against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	o := options{
		seed: *seed, seconds: *seconds, scale: 1,
		tmpDir: filepath.Join(".bench_build", "tmp"), outDir: filepath.Join("benchmark", "out"),
	}
	if err := run(*workload, *trace, *aa, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are one invocation's settings, the same for every workload
// and mode it runs.
type options struct {
	seed    int64
	seconds float64 // measuring time per run
	scale   int     // step counts and driver sizes are divided by it: 1, or 50 in the smoke test
	tmpDir  string  // generated configs, stores and journals go under it
	outDir  string  // span files are written into it
}

func run(workload string, trace int, aa bool, o options) error {
	if o.seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad flags: seconds %v, trace %d", o.seconds, trace)
	}
	names := workloadNames
	if workload != "" {
		if !slices.Contains(workloadNames, workload) {
			return fmt.Errorf("unknown workload %q (known: %s)", workload, strings.Join(workloadNames, ", "))
		}
		names = []string{workload}
	}
	printEnv(o)
	if aa {
		return runAA(names, o)
	}
	modes := []int{trace}
	if workload == "" {
		modes = []int{0, 1} // the human-facing full report
	}
	failed := false
	for _, name := range names {
		for _, mode := range modes {
			res, err := measure(name, mode, o)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res.print(name, mode)
			failed = failed || !res.Correct
		}
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// result is one run's outcome in the shape the driver reads from the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, the failed checks,
// and last the one-line JSON object.
func (r *result) print(name string, mode int) {
	for _, d := range metricsOf(mode) {
		fmt.Printf("%-16s %-36s %14.6g %s\n", name, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("%-16s FAILED %s\n", name, n)
	}
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// metricsOf lists what a run in the given --trace mode must print.
func metricsOf(mode int) []metricDef {
	if mode == 1 {
		return perLayer
	}
	return endToEnd
}

// measure performs one run of one workload in one mode.
func measure(name string, mode int, o options) (*result, error) {
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	h := &harness{seed: o.seed, scale: o.scale, tmpRoot: tmp, outDir: o.outDir, rec: obs.NewRecorder()}
	root := h.rec.Begin(0, "bench", "bench", "workload-run",
		obs.Str("workload", name), obs.Int64("seed", o.seed), obs.Int("trace", mode))
	h.root = root.ID()

	var values map[string]float64
	if mode == 0 {
		values, err = h.endToEnd(name, o.seconds)
	} else {
		var traced *pass
		if values, traced, err = h.perLayer(name, o.seconds); err == nil {
			root.End()
			err = h.writeTrace(name, traced)
		}
	}
	if err != nil {
		return nil, err
	}

	defs := metricsOf(mode)
	res := &result{
		Attempted: h.checks.attempted,
		Failed:    h.checks.failed,
		Correct:   h.checks.failed == 0,
		Metrics:   make(map[string]metric, len(defs)),
		notes:     h.checks.notes,
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printEnv records the environment with every result. Wall-clock
// scaling is unresolved when the process runs more threads than the
// host has cores.
func printEnv(o options) {
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s seed=%d\n",
		nproc, procs, runtime.Version(), cpuModel(), commit(), o.seed)
	var steps []string
	for _, name := range workloadNames {
		if cfg, err := loadTemplate(name); err == nil {
			steps = append(steps, fmt.Sprintf("%s=%d", name, cfg.Steps/o.scale))
		}
	}
	fmt.Printf("env steps-per-pass %s\n", strings.Join(steps, " "))
	if procs > nproc {
		fmt.Printf("env WARNING GOMAXPROCS %d > nproc %d: wall-clock scaling is unresolved\n", procs, nproc)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
