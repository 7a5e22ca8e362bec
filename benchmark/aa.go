package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is what BENCHMARK.json promises the driver about the
// metrics: the A/A check reads the bounds from it, the tests compare
// the rest with the tables in the code.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runAA measures the end-to-end set twice on the same code and fails if
// any metric of any workload differs between the two by more than its
// bound: a benchmark that cannot tell a commit from itself cannot tell
// it from its parent.
func runAA(names []string, o options) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the A/A check reads the bounds from BENCHMARK.json; run it from the repo root: %w", err)
	}
	bound := map[string]float64{}
	for _, e := range bf.EndToEnd {
		bound[e.Name] = e.Bound
	}

	bad := 0
	for _, name := range names {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = measure(name, 0, o); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !runs[i].Correct {
				bad++
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := "ok"
			if diff > bound[d.Name] {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("aa %-16s %-24s %14.6g %14.6g %-5s diff %6.2f%% bound %5.1f%% %s\n",
				name, d.Name, a, b, d.Unit, 100*diff, 100*bound[d.Name], verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A check: %d metrics differ by more than their bound or failed their checks", bad)
	}
	return nil
}
