package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// contractPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const contractPath = "BENCHMARK.json"

// contractFile is the part of BENCHMARK.json the program and its test read.
type contractFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(path string) (*contractFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contractFile
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// aaRounds is how often A/A mode runs each side. One run per side is not
// enough on a shared host: consecutive runs of the same binary differ by
// up to 30 % in a bad quarter-hour, while medians of alternating runs
// agree.
const aaRounds = 3

// runAA runs the untraced set as two sides of the same code, A and B
// alternating for aaRounds rounds, and prints, per (metric, workload), the
// two medians, their relative difference and the bound. Two sets of runs
// of the same code must agree within the benchmark's own bounds, or the
// bounds mean nothing.
func runAA(names []string, o runOpts, stdout, stderr io.Writer) int {
	contract, err := readContract(contractPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	type key struct{ metric, workload string }
	var sides [2]map[key][]float64
	for i := range sides {
		sides[i] = map[key][]float64{}
	}
	for round := 0; round < aaRounds; round++ {
		for i, side := range sides {
			for _, name := range names {
				fmt.Fprintf(stderr, "A/A round %d/%d, side %c: %s\n", round+1, aaRounds, 'A'+i, name)
				r, err := runWorkload(name, false, o)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				if !r.Correct {
					printResult(stdout, r, endToEnd)
					return 1
				}
				for metric, v := range r.Metrics {
					k := key{metric, name}
					side[k] = append(side[k], v.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "\nA/A: medians of %d alternating runs per side\n", aaRounds)
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %9s %7s\n", "metric", "workload", "A", "B", "diff", "bound")
	exceeded := 0
	for _, e := range contract.EndToEnd {
		for _, name := range names {
			k := key{e.Name, name}
			a, b := median(sides[0][k]), median(sides[1][k])
			diff := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if !(diff <= e.Bound) {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(stdout, "%-16s %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", e.Name, name, a, b, 100*diff, 100*e.Bound, mark)
		}
	}
	if exceeded > 0 {
		fmt.Fprintf(stdout, "\nA/A: %d end-to-end differences exceed their bound\n", exceeded)
		return 1
	}
	fmt.Fprintln(stdout, "\nA/A: every end-to-end difference is within its bound")
	return 0
}
