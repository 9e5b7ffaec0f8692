package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"parapre/internal/par"
)

// JSON report of one ippsbench run. Every cell carries both clocks: the
// modeled (virtual-machine) time the paper tabulates and the measured
// wall-clock time of the actual solve on this host, so speedups of the
// shared-memory kernel layer can be tracked per commit.

// ReportCell is one (preconditioner, P) measurement in the JSON report.
type ReportCell struct {
	Precond   string  `json:"precond"`
	Iters     int     `json:"iters"`
	Restarts  int     `json:"restarts,omitempty"`
	ModelTime float64 `json:"model_time_s"`
	WallTime  float64 `json:"wall_time_s"`
	Converged bool    `json:"converged"`
	Note      string  `json:"note,omitempty"` // chaos outcome annotation
	// Phases is the phase → slowest-rank virtual seconds breakdown,
	// present only when the run attached an observability collector.
	Phases map[string]float64 `json:"phases,omitempty"`
}

// ReportRow groups the cells of one processor count.
type ReportRow struct {
	P     int          `json:"p"`
	Cells []ReportCell `json:"cells"`
}

// ReportTable is one regenerated table.
type ReportTable struct {
	ID    string      `json:"id"`
	Title string      `json:"title"`
	N     int         `json:"n"`
	Rows  []ReportRow `json:"rows"`
}

// Report is the top-level JSON document.
type Report struct {
	Date       string        `json:"date"`
	Workers    int           `json:"workers"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Tables     []ReportTable `json:"tables"`
}

// NewReport converts regenerated tables into a report stamped with the
// given date and the current shared-memory configuration.
func NewReport(date string, tables []Table) *Report {
	rep := &Report{Date: date, Workers: par.Workers(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, t := range tables {
		rt := ReportTable{ID: t.ID, Title: t.Title, N: t.N}
		for _, r := range t.Rows {
			rr := ReportRow{P: r.P}
			for ci, c := range r.Cells {
				name := ""
				if ci < len(t.Columns) {
					name = t.Columns[ci]
				}
				rr.Cells = append(rr.Cells, ReportCell{
					Precond:   name,
					Iters:     c.Iters,
					Restarts:  c.Restarts,
					ModelTime: c.Time,
					WallTime:  c.Wall,
					Converged: c.Converged,
					Note:      c.Note,
					Phases:    c.Phases,
				})
			}
			rt.Rows = append(rt.Rows, rr)
		}
		rep.Tables = append(rep.Tables, rt)
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a previously written BENCH_*.json report.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// cellKey identifies one measurement across reports.
type cellKey struct {
	table   string
	p       int
	precond string
}

// CompareModelTimes checks the current report against a committed baseline:
// every cell present in both must keep its iteration count exactly (modeled
// runs are deterministic; an iteration change is a golden change) and its
// modeled time within the relative tolerance, on either side: a slower
// cell is a regression, a faster one means the baseline no longer
// describes the code and has to be regenerated — passing it would leave
// that much room for a later regression to hide in. Wall-clock times are
// host-dependent and deliberately not compared. The returned strings
// describe each drift; an empty slice means the run is clean. Cells
// present in only one report are skipped, so the guard tolerates baseline
// and run configurations that overlap rather than match.
func CompareModelTimes(base, cur *Report, tol float64) []string {
	ref := make(map[cellKey]ReportCell)
	for _, t := range base.Tables {
		for _, r := range t.Rows {
			for _, c := range r.Cells {
				ref[cellKey{t.ID, r.P, c.Precond}] = c
			}
		}
	}
	var regs []string
	for _, t := range cur.Tables {
		for _, r := range t.Rows {
			for _, c := range r.Cells {
				b, ok := ref[cellKey{t.ID, r.P, c.Precond}]
				if !ok {
					continue
				}
				id := fmt.Sprintf("%s/%s/P=%d", t.ID, c.Precond, r.P)
				if c.Iters != b.Iters {
					regs = append(regs, fmt.Sprintf("%s: iterations %d, baseline %d", id, c.Iters, b.Iters))
					continue
				}
				if c.Converged != b.Converged {
					regs = append(regs, fmt.Sprintf("%s: converged=%v, baseline %v", id, c.Converged, b.Converged))
					continue
				}
				if b.ModelTime <= 0 {
					continue
				}
				switch {
				case c.ModelTime > b.ModelTime*(1+tol):
					regs = append(regs, fmt.Sprintf("%s: modeled time %.4fs exceeds baseline %.4fs by more than %.0f%%",
						id, c.ModelTime, b.ModelTime, tol*100))
				case c.ModelTime < b.ModelTime*(1-tol):
					regs = append(regs, fmt.Sprintf("%s: modeled time %.4fs is below baseline %.4fs by more than %.0f%%: baseline stale, regenerate",
						id, c.ModelTime, b.ModelTime, tol*100))
				}
			}
		}
	}
	return regs
}
