package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentsCoverAllPaperTables(t *testing.T) {
	want := []string{
		"tc1-cluster", "tc1-origin", "tc2-cluster", "tc2-origin",
		"tc3-cluster", "tc4-cluster", "tc5-cluster", "tc5-origin",
		"tc6-cluster", "shape", "jump", "schwarz",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d is %q, want %q", i, got[i].ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("tc4-cluster")
	if err != nil || e.CaseName != "tc4-heat3d" {
		t.Fatalf("ByID: %+v %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// runTiny shrinks an experiment for test execution.
func runTiny(t *testing.T, id string, size int, ps []int) []Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	e.Ps = ps
	tables, err := e.Run(size)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestTC1ClusterTinyRun(t *testing.T) {
	tables := runTiny(t, "tc1-cluster", 17, []int{2, 4})
	if len(tables) != 1 {
		t.Fatal("table count")
	}
	tb := tables[0]
	if len(tb.Rows) != 2 || len(tb.Columns) != 4 { // the paper's four columns
		t.Fatalf("table shape %dx%d", len(tb.Rows), len(tb.Columns))
	}
	for _, r := range tb.Rows {
		for i, c := range r.Cells {
			if !c.Converged {
				t.Errorf("P=%d %s: not converged", r.P, tb.Columns[i])
			}
			if c.Iters <= 0 || c.Time <= 0 {
				t.Errorf("P=%d %s: bogus cell %+v", r.P, tb.Columns[i], c)
			}
		}
	}
}

func TestShapeExperimentProducesTwoTables(t *testing.T) {
	tables := runTiny(t, "shape", 9, []int{4})
	if len(tables) != 2 {
		t.Fatalf("shape produced %d tables, want 2", len(tables))
	}
	if !strings.Contains(tables[0].Title, "general") || !strings.Contains(tables[1].Title, "simple") {
		t.Fatalf("titles: %q / %q", tables[0].Title, tables[1].Title)
	}
}

func TestSchwarzExperimentTinyRun(t *testing.T) {
	tables := runTiny(t, "schwarz", 25, []int{4})
	tb := tables[0]
	if len(tb.Columns) != 2 {
		t.Fatalf("columns %v", tb.Columns)
	}
	for _, r := range tb.Rows {
		for i, c := range r.Cells {
			if !c.Converged {
				t.Errorf("P=%d %s: not converged", r.P, tb.Columns[i])
			}
		}
	}
}

func TestTableWrite(t *testing.T) {
	tb := Table{
		Title:   "demo",
		N:       100,
		Columns: []string{"A", "B"},
		Rows: []Row{
			{P: 2, Cells: []Cell{{Iters: 10, Time: 0.5, Converged: true}, {Converged: false}}},
		},
	}
	var buf bytes.Buffer
	tb.Write(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "N = 100", "10", "n.c."} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOriginExperimentUsesOriginMachine(t *testing.T) {
	e, _ := ByID("tc1-origin")
	if e.Machine().Name != "Origin3800" {
		t.Fatalf("machine %q", e.Machine().Name)
	}
	e2, _ := ByID("tc1-cluster")
	if e2.Machine().Name != "LinuxCluster" {
		t.Fatalf("machine %q", e2.Machine().Name)
	}
}

// TestEveryExperimentRunsTiny executes every experiment id at a reduced
// size so no table regeneration path rots.
func TestEveryExperimentRunsTiny(t *testing.T) {
	sizes := map[string]int{
		"tc1-cluster": 13, "tc1-origin": 13,
		"tc2-cluster": 7, "tc2-origin": 7,
		"tc3-cluster": 16, "tc4-cluster": 7,
		"tc5-cluster": 13, "tc5-origin": 13,
		"tc6-cluster": 9, "shape": 7, "jump": 13, "schwarz": 25,
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			e.Ps = []int{2}
			if e.ID == "schwarz" {
				e.Ps = []int{4}
			}
			tables, err := e.Run(sizes[e.ID])
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
					t.Fatalf("empty table %q", tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r.Cells) != len(tb.Columns) {
						t.Fatalf("ragged row in %q", tb.Title)
					}
				}
			}
		})
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := Table{
		Title:   "demo",
		N:       10,
		Columns: []string{"A"},
		Rows:    []Row{{P: 2, Cells: []Cell{{Iters: 5, Time: 0.25, Converged: true}}}},
	}
	var buf bytes.Buffer
	tb.WriteMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{"**demo**", "| P |", "| 2 |", "5 / 0.2500s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestCompareModelTimesIsTwoSided: against a fabricated baseline, a cell
// that got slower is a regression, a cell that got faster reports a stale
// baseline, an iteration or convergence change is reported as such, an
// equal cell and a cell the baseline lacks are silent — and inside the
// tolerance both directions pass.
func TestCompareModelTimesIsTwoSided(t *testing.T) {
	report := func(cells ...ReportCell) *Report {
		return &Report{Tables: []ReportTable{{ID: "tc", Rows: []ReportRow{{P: 4, Cells: cells}}}}}
	}
	base := report(
		ReportCell{Precond: "same", Iters: 10, ModelTime: 1, Converged: true},
		ReportCell{Precond: "slower", Iters: 10, ModelTime: 1, Converged: true},
		ReportCell{Precond: "faster", Iters: 10, ModelTime: 1, Converged: true},
		ReportCell{Precond: "iterations", Iters: 10, ModelTime: 1, Converged: true},
		ReportCell{Precond: "diverged", Iters: 10, ModelTime: 1, Converged: true},
	)
	cur := report(
		ReportCell{Precond: "same", Iters: 10, ModelTime: 1, Converged: true},
		ReportCell{Precond: "slower", Iters: 10, ModelTime: 1.05, Converged: true},
		ReportCell{Precond: "faster", Iters: 10, ModelTime: 0.95, Converged: true},
		ReportCell{Precond: "iterations", Iters: 11, ModelTime: 1, Converged: true},
		ReportCell{Precond: "diverged", Iters: 10, ModelTime: 1, Converged: false},
		ReportCell{Precond: "new", Iters: 3, ModelTime: 7, Converged: true},
	)
	got := CompareModelTimes(base, cur, 0)
	want := []string{
		"tc/slower/P=4: modeled time 1.0500s exceeds baseline 1.0000s by more than 0%",
		"tc/faster/P=4: modeled time 0.9500s is below baseline 1.0000s by more than 0%: baseline stale, regenerate",
		"tc/iterations/P=4: iterations 11, baseline 10",
		"tc/diverged/P=4: converged=false, baseline true",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("tol 0:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := CompareModelTimes(base, cur, 0.10); len(got) != 2 {
		t.Errorf("tol 10%%: %q, want only the iteration and the convergence change", got)
	}
	if got := CompareModelTimes(base, base, 0); len(got) != 0 {
		t.Errorf("a report against itself: %q", got)
	}
}
