// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the library from outside, through its public
// functions only, over four named workloads; verifies every result it
// timed; and prints every metric by name with its unit. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root is the contract it is run under.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                                  # all workloads, both runs
//	bash benchmark/run.sh -workload warm_schur -trace 0    # end-to-end metrics of one
//	bash benchmark/run.sh -workload warm_schur -trace 1    # per-layer metrics + trace file
//	bash benchmark/run.sh -aa                              # A/A: two alternating sides, same code
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any timed result was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parapre/internal/par"
)

// runOpts is what one run of one workload is told.
type runOpts struct {
	Scale   scale
	Seed    int64
	Seconds float64
	OutDir  string
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload    string                 `json:"workload"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string]int         `json:"samples,omitempty"`
	Reasons     []string               `json:"reasons,omitempty"`
	WallS       float64                `json:"wall_s"`
	Calibration *calibration           `json:"calibration,omitempty"`
}

func newRunResult(workload string, t *tally, metrics map[string]metricValue) *runResult {
	return &runResult{
		Workload:  workload,
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
		Reasons:   t.reasons,
	}
}

// runWorkload performs one run: the untraced end-to-end measurement or
// the traced per-layer one.
func runWorkload(name string, traced bool, o runOpts) (*runResult, error) {
	t0 := time.Now()
	var r *runResult
	var err error
	switch {
	case name == wlServiceMix && traced:
		r, err = runServiceLayers(o)
	case name == wlServiceMix:
		r, err = runServiceEndToEnd(o)
	case traced:
		r, err = runLibLayers(name, o)
	default:
		r, err = runLibEndToEnd(name, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.WallS = time.Since(t0).Seconds()
	return r, nil
}

// printResult writes the metrics of one run as a table, in declaration
// order.
func printResult(w io.Writer, r *runResult, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed, run wall %.1f s\n", r.Workload, r.Attempted, r.Failed, r.WallS)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	if c := r.Calibration; c != nil {
		fmt.Fprintf(w, "  calibration: triad over 3 arrays of %d MB, daxpy in L1\n", c.ArrayMB)
	}
	for _, reason := range r.Reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", reason)
	}
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pinOneThread makes the whole benchmark run Go code on one OS thread and
// the library's par pool use one worker. The reference host gives a guest
// two virtual CPUs of a shared machine; with ranks spread over both, every
// collective waits for whichever virtual CPU the host serves last, and
// the same binary moved 1.2–1.5 times between quiet and busy minutes of
// the host, against 1.05–1.2 times on one thread (README.md, "Host
// noise"). On one thread a wall time is the CPU work of all ranks, which
// is what a change to the code changes.
func pinOneThread() {
	runtime.GOMAXPROCS(1)
	par.SetWorkers(1)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "workload to run: paper_tables, warm_block, warm_schur, service_mix or all")
		seed      = fs.Int64("seed", 20030422, "seed of the generated right-hand sides and job sequence")
		seconds   = fs.Float64("seconds", 28, "how long one run measures")
		trace     = fs.Int("trace", -1, "0: untraced end-to-end metrics; 1: traced per-layer metrics; -1: both, one after the other")
		scaleName = fs.String("scale", "full", "problem sizes: full, or tiny for the smoke test")
		aa        = fs.Bool("aa", false, "A/A mode: run the untraced set as two alternating sides of the same code and compare their medians against the bounds")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files and report.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
	}
	if *trace < -1 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -trace is -1, 0 or 1 and -seconds is positive")
		return 2
	}
	pinOneThread()
	o := runOpts{Scale: sc, Seed: *seed, Seconds: *seconds, OutDir: *outDir}
	hdr := hostHeader(o)
	hdr.print(stdout)

	if *aa {
		return runAA(names, o, stdout, stderr)
	}

	report := struct {
		Header  header       `json:"header"`
		Results []*runResult `json:"results"`
	}{Header: hdr}
	last := contractLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			r, err := runWorkload(name, traced, o)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			printResult(stdout, r, defs)
			report.Results = append(report.Results, r)
			last.Correct = last.Correct && r.Correct
			last.Attempted += r.Attempted
			last.Failed += r.Failed
			for k, v := range r.Metrics {
				if len(names) > 1 {
					k = name + "/" + k
				}
				last.Metrics[k] = v
			}
		}
	}
	if err := writeJSON(filepath.Join(o.OutDir, "report.json"), report); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
