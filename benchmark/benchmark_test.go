package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"parapre/internal/obs"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesDeclarations pins BENCHMARK.json to the tables the
// program reports from: same names, same units, same order.
func TestContractMatchesDeclarations(t *testing.T) {
	c, err := readContract(filepath.Join("..", contractPath))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	hasSetup := false
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n json %v\n prog %v", layers, perLayer)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	seen := map[string]bool{}
	for _, n := range append(append(names, metricNames(endToEnd)...), metricNames(perLayer)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// TestSmoke runs every workload both ways at the tiny scale: the last
// line of output carries exactly the declared metrics, every result was
// verified, and the traced run leaves a trace file cmd/tracecheck accepts.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace],
				"-scale", "tiny", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s\n%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w, trace, err)
			}
			if len(last) != 4 {
				t.Errorf("%s trace %d: last line has keys %v", w, trace, last)
			}
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w, trace, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s has unit %q, declared %q", w, trace, d.Name, v.Unit, d.Unit)
				}
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, v.Value)
				}
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace_"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateChromeTrace(data); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestSeed: the seed changes the right-hand sides and the job sequence,
// never the cell list; the same seed gives the same inputs.
func TestSeed(t *testing.T) {
	sc := tinyScale()
	build := func(seed int64) *libWorkload {
		w, err := newLibWorkload(wlWarmBlock, sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, a2, b := build(1), build(1), build(2)
	if !reflect.DeepEqual(a.Problems[0].RHS, a2.Problems[0].RHS) {
		t.Error("same seed, different right-hand sides")
	}
	if reflect.DeepEqual(a.Problems[0].RHS, b.Problems[0].RHS) {
		t.Error("different seeds, same right-hand sides")
	}
	cells := func(seed int64) []sessionSpec {
		w, err := newLibWorkload(wlPaperTables, sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []sessionSpec
		for _, c := range w.Configs {
			out = append(out, c.sessionSpec)
		}
		return out
	}
	if c1, c2 := cells(1), cells(2); !reflect.DeepEqual(c1, c2) || len(c1) != 28 {
		t.Errorf("cell list depends on the seed or is not 28 cells: %d vs %d", len(c1), len(c2))
	}
	jobs := func(seed int64) []job {
		js := newJobSequence(sc, seed)
		return append(js.nextBlock(), js.nextBlock()...)
	}
	if !reflect.DeepEqual(jobs(1), jobs(1)) {
		t.Error("same seed, different job sequence")
	}
	if reflect.DeepEqual(jobs(1), jobs(2)) {
		t.Error("different seeds, same job sequence")
	}
	cold := map[string]bool{}
	for _, j := range jobs(3) {
		if j.Hot < 0 {
			key, _ := json.Marshal(j.Spec)
			if cold[string(key)] {
				t.Errorf("cold spec %s used twice", key)
			}
			cold[string(key)] = true
		}
	}
	if len(cold) != 2*len(coldStrata) {
		t.Errorf("%d cold specs in two blocks, want %d", len(cold), 2*len(coldStrata))
	}
}
