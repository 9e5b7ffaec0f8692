// Package bench defines the paper's experiments (§5): for every table in
// the evaluation there is one Experiment whose Run method regenerates the
// corresponding rows — iteration counts and modeled wall-clock times per
// processor count and preconditioner. Sizes default to laptop-scale; the
// Scale knob (or the -size flag of cmd/ippsbench) moves them toward the
// paper's ~10⁶-unknown originals.
package bench

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"parapre/internal/cases"
	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

// Cell is one (preconditioner, P) measurement.
type Cell struct {
	Iters    int
	Restarts int     // outer-solver restart cycles
	Time     float64 // modeled seconds (setup + solve) on the virtual machine
	// Wall is the measured wall-clock seconds of the distributed solve
	// itself (core.Result.Wall). The clock stops before post-processing
	// (solution gather, true-residual recomputation), so walls stay
	// comparable across configurations that differ only there.
	Wall      float64
	Converged bool
	// Note annotates chaos-run outcomes ("deadlock", "crash [1]",
	// "breakdown", "recovered"); empty for ordinary measurements.
	Note string
	// Phases maps phase name → slowest-rank virtual seconds, recorded
	// only when the experiment attaches an observability collector.
	Phases map[string]float64
}

// Row is one line of a paper table: a processor count with one Cell per
// column.
type Row struct {
	P     int
	Cells []Cell
}

// Table is one regenerated paper table.
type Table struct {
	ID      string // experiment id the table came from
	Title   string
	Columns []string // preconditioner names
	Rows    []Row
	N       int // global unknowns
}

// Experiment describes one of the paper's tables.
type Experiment struct {
	ID       string
	Title    string
	CaseName string
	Size     int // default (scaled-down) resolution
	Machine  func() *dist.Machine
	Ps       []int
	Preconds []precond.Kind
	Scheme   core.PartitionScheme

	// Schwarz experiments replace the algebraic preconditioners.
	Schwarz     bool
	SchwarzCGC  []bool // one column per entry
	SchwarzGrid func(p int) (px, py int)

	// Chaos configuration (the -faults / -resilient flags of ippsbench):
	// a fault plan turns every solve into a converge-or-typed-error run
	// whose failures are recorded as cell Notes instead of aborting the
	// experiment.
	Faults    *dist.FaultPlan
	Watchdog  time.Duration
	Resilient bool

	// Observe, when non-nil, is called once per solve with a label of the
	// form "<id>/<precond>/P=<p>" and returns the observability collector
	// to attach to that solve (nil to skip it). Each solve needs its own
	// collector; counters and spans are not reset between solves.
	Observe func(label string) *obs.Collector

	// Checkpoint configuration (the -checkpoint / -checkpoint-every /
	// -restore flags of ippsbench). A checkpoint file belongs to exactly
	// one solve, so these require the sweep to be narrowed to a single
	// cell: one processor count and one preconditioner (use -procs and the
	// experiment's own column set, or a single-column experiment).
	CheckpointEvery int
	CheckpointPath  string
	Restore         *ckpt.Checkpoint
}

// SingleCell resolves the experiment down to the one (problem, config)
// pair a single-cell sweep denotes — the shape the multi-process socket
// transport runs in, where one worker process per rank solves exactly
// one cell. The sweep must already be narrowed to one processor count
// and one preconditioner. CheckpointEvery, Restore and Resilient carry
// over; CheckpointPath does not — the durable file belongs to whoever
// hosts the checkpoint writer (runAlgebraic in-process, the supervisor's
// hub over sockets).
func (e Experiment) SingleCell(size int) (*core.Problem, core.Config, error) {
	if size == 0 {
		size = e.Size
	}
	if e.Schwarz || e.ID == "shape" || len(e.Ps) != 1 || len(e.Preconds) != 1 {
		return nil, core.Config{}, fmt.Errorf("%s: needs a single-cell sweep (one processor count, one preconditioner); narrow with -procs and -precond", e.ID)
	}
	c, err := cases.ByName(e.CaseName)
	if err != nil {
		return nil, core.Config{}, err
	}
	prob := c.Build(size)
	cfg := core.DefaultConfig(e.Ps[0], e.Preconds[0])
	cfg.Machine = e.Machine()
	cfg.Scheme = e.Scheme
	cfg.CheckpointEvery = e.CheckpointEvery
	cfg.Restore = e.Restore
	cfg.Resilient = e.Resilient
	return prob, cfg, nil
}

// checkpointing reports whether any checkpoint/restore option is set.
func (e Experiment) checkpointing() bool {
	return e.CheckpointEvery > 0 || e.CheckpointPath != "" || e.Restore != nil
}

// Experiments returns the full set, one per table in the paper (§5), in
// the paper's order. The IDs match DESIGN.md's experiment index.
func Experiments() []Experiment {
	boxes := func(p int) (int, int) {
		px := 1
		for px*px < p {
			px *= 2
		}
		return px, p / px
	}
	return []Experiment{
		{ID: "tc1-cluster", Title: "Test Case 1 (Poisson 2D), Linux cluster",
			CaseName: "tc1-poisson2d", Size: 129, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "tc1-origin", Title: "Test Case 1 (Poisson 2D), Origin 3800",
			CaseName: "tc1-poisson2d", Size: 129, Machine: dist.Origin3800,
			Ps:       []int{8, 16, 32},
			Preconds: []precond.Kind{precond.KindSchur1, precond.KindBlock2}},
		{ID: "tc2-cluster", Title: "Test Case 2 (Poisson 3D), Linux cluster",
			CaseName: "tc2-poisson3d", Size: 21, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "tc2-origin", Title: "Test Case 2 (Poisson 3D), Origin 3800",
			CaseName: "tc2-poisson3d", Size: 21, Machine: dist.Origin3800,
			Ps:       []int{8, 16, 32},
			Preconds: []precond.Kind{precond.KindSchur2, precond.KindBlock2}},
		{ID: "tc3-cluster", Title: "Test Case 3 (Poisson, unstructured), Linux cluster",
			CaseName: "tc3-unstructured", Size: 129, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "tc4-cluster", Title: "Test Case 4 (heat 3D), Linux cluster",
			CaseName: "tc4-heat3d", Size: 21, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "tc5-cluster", Title: "Test Case 5 (convection-diffusion), Linux cluster",
			CaseName: "tc5-convdiff", Size: 129, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "tc5-origin", Title: "Test Case 5 (convection-diffusion), Origin 3800",
			CaseName: "tc5-convdiff", Size: 129, Machine: dist.Origin3800,
			Ps:       []int{8, 16, 32},
			Preconds: []precond.Kind{precond.KindSchur1, precond.KindSchur2}},
		{ID: "tc6-cluster", Title: "Test Case 6 (linear elasticity), Linux cluster",
			CaseName: "tc6-elasticity", Size: 49, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "shape", Title: "§5.1 Effect of subdomain shape (Test Case 2, P=16): general vs simple partitioning",
			CaseName: "tc2-poisson3d", Size: 21, Machine: dist.LinuxCluster,
			Ps:       []int{16},
			Preconds: clusterColumns()},
		{ID: "jump", Title: "EXTENSION: 1000:1 discontinuous-coefficient Poisson (not in the paper)",
			CaseName: "tc7-jump", Size: 65, Machine: dist.LinuxCluster,
			Ps:       []int{2, 4, 8, 16},
			Preconds: clusterColumns()},
		{ID: "schwarz", Title: "§5.2 Additive Schwarz on Test Case 1 (with and without coarse-grid corrections)",
			CaseName: "tc1-poisson2d", Size: 129, Machine: dist.LinuxCluster,
			Ps:          []int{4, 16},
			Schwarz:     true,
			SchwarzCGC:  []bool{false, true},
			SchwarzGrid: boxes},
	}
}

// clusterColumns is the column set of the paper's cluster tables.
func clusterColumns() []precond.Kind {
	return []precond.Kind{precond.KindSchur1, precond.KindSchur2, precond.KindBlock1, precond.KindBlock2}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Run executes the experiment at the given size (0 ⇒ the experiment's
// default) and returns the regenerated table(s). The "shape" experiment
// returns two tables (general and simple partitioning).
func (e Experiment) Run(size int) ([]Table, error) {
	if size == 0 {
		size = e.Size
	}
	c, err := cases.ByName(e.CaseName)
	if err != nil {
		return nil, err
	}
	prob := c.Build(size)

	if e.checkpointing() {
		if e.Schwarz || e.ID == "shape" || len(e.Ps) != 1 || len(e.Preconds) != 1 {
			return nil, fmt.Errorf("%s: checkpoint/restore needs a single-cell sweep (one processor count, one preconditioner); narrow with -procs", e.ID)
		}
	}
	if e.Schwarz {
		t, err := e.runSchwarz(prob, size)
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
	if e.ID == "shape" {
		var out []Table
		for _, scheme := range []core.PartitionScheme{core.PartitionGeneral, core.PartitionSimple} {
			name := "general grid partitioning"
			if scheme == core.PartitionSimple {
				name = "simple grid partitioning"
			}
			t, err := e.runAlgebraic(prob, scheme)
			if err != nil {
				return nil, err
			}
			t.Title = e.Title + " — " + name
			out = append(out, t)
		}
		return out, nil
	}
	t, err := e.runAlgebraic(prob, e.Scheme)
	if err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

func (e Experiment) runAlgebraic(prob *core.Problem, scheme core.PartitionScheme) (Table, error) {
	t := Table{ID: e.ID, Title: e.Title, N: prob.A.Rows}
	for _, k := range e.Preconds {
		t.Columns = append(t.Columns, string(k))
	}
	for _, p := range e.Ps {
		row := Row{P: p}
		for _, k := range e.Preconds {
			cfg := core.DefaultConfig(p, k)
			cfg.Machine = e.Machine()
			cfg.Scheme = scheme
			cfg.CheckpointEvery = e.CheckpointEvery
			cfg.CheckpointPath = e.CheckpointPath
			cfg.Restore = e.Restore
			e.applyChaos(&cfg)
			cfg.Collector = e.observe(fmt.Sprintf("%s/%s/P=%d", e.ID, k, p))
			start := time.Now()
			res, err := core.Solve(prob, cfg)
			if err != nil {
				note, typed := faultNote(err)
				if !e.chaos() || !typed {
					return t, fmt.Errorf("%s/%s P=%d: %w", e.ID, k, p, err)
				}
				row.Cells = append(row.Cells, Cell{Note: note, Wall: time.Since(start).Seconds()})
				continue
			}
			row.Cells = append(row.Cells, newCell(res))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (e Experiment) runSchwarz(prob *core.Problem, size int) (Table, error) {
	t := Table{ID: e.ID, Title: e.Title, N: prob.A.Rows}
	for _, cgc := range e.SchwarzCGC {
		if cgc {
			t.Columns = append(t.Columns, "AddSchwarz+CGC")
		} else {
			t.Columns = append(t.Columns, "AddSchwarz")
		}
	}
	for _, p := range e.Ps {
		px, py := e.SchwarzGrid(p)
		row := Row{P: p}
		for _, cgc := range e.SchwarzCGC {
			cfg := core.DefaultConfig(p, precond.KindNone)
			cfg.Machine = e.Machine()
			sw := precond.DefaultSchwarz(size, px, py, cgc)
			cfg.Schwarz = &sw
			e.applyChaos(&cfg)
			cfg.Collector = e.observe(fmt.Sprintf("%s/schwarz cgc=%v/P=%d", e.ID, cgc, p))
			start := time.Now()
			res, err := core.Solve(prob, cfg)
			if err != nil {
				note, typed := faultNote(err)
				if !e.chaos() || !typed {
					return t, fmt.Errorf("%s cgc=%v P=%d: %w", e.ID, cgc, p, err)
				}
				row.Cells = append(row.Cells, Cell{Note: note, Wall: time.Since(start).Seconds()})
				continue
			}
			row.Cells = append(row.Cells, newCell(res))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// chaos reports whether the experiment runs under fault injection or a
// watchdog (the converge-or-typed-error regime).
func (e Experiment) chaos() bool { return e.Faults != nil || e.Watchdog > 0 }

// applyChaos copies the experiment's chaos configuration into one solve
// config; a nil plan leaves cfg untouched (bit-identical baseline runs).
func (e Experiment) applyChaos(cfg *core.Config) {
	cfg.Faults = e.Faults
	cfg.Watchdog = e.Watchdog
	cfg.Resilient = e.Resilient
}

// observe asks the experiment's Observe hook for the collector of one
// labeled solve; nil hook (the default) means no observability.
func (e Experiment) observe(label string) *obs.Collector {
	if e.Observe == nil {
		return nil
	}
	return e.Observe(label)
}

// newCell converts one solve result into a table cell, annotating chaos
// outcomes: a typed solver error becomes "breakdown", a solve saved by
// the escalation ladder becomes "recovered".
func newCell(res *core.Result) Cell {
	c := Cell{
		Iters:     res.Iterations,
		Restarts:  res.Restarts,
		Time:      res.SetupTime + res.SolveTime,
		Wall:      res.Wall,
		Converged: res.Converged,
	}
	if len(res.PhaseBreakdown) > 0 {
		c.Phases = make(map[string]float64, len(res.PhaseBreakdown))
		for _, ps := range res.PhaseBreakdown {
			c.Phases[ps.Phase] = ps.MaxSeconds
		}
	}
	if res.Err != nil {
		c.Note = "breakdown"
	}
	if res.Recovery != nil && res.Recovery.Recovered {
		c.Note = "recovered"
	}
	return c
}

// faultNote classifies a chaos-run failure for table annotation. Only the
// typed runtime outcomes qualify; anything else (including an escaped
// rank panic, which is a bug) fails the experiment.
func faultNote(err error) (string, bool) {
	var de *dist.DeadlockError
	var ce *dist.CrashError
	var pc *dist.PeerCrashedError
	var tm *dist.TagMismatchError
	switch {
	case errors.As(err, &de):
		return "deadlock", true
	case errors.As(err, &ce):
		return fmt.Sprintf("crash %v", ce.Ranks), true
	case errors.As(err, &pc):
		return fmt.Sprintf("crash [%d]", pc.Peer), true
	case errors.As(err, &tm):
		return "tag mismatch", true
	}
	return "", false
}

// WriteMarkdown renders the table as a GitHub-flavored Markdown table
// with "#itr / time" cells, for pasting into EXPERIMENTS.md.
func (t Table) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "**%s** (N = %d)\n\n", t.Title, t.N)
	fmt.Fprint(w, "| P |")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprint(w, "\n|---|")
	for range t.Columns {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %d |", r.P)
		for _, c := range r.Cells {
			switch {
			case c.Converged && c.Note != "":
				fmt.Fprintf(w, " %d / %.4fs (%s) |", c.Iters, c.Time, c.Note)
			case c.Converged:
				fmt.Fprintf(w, " %d / %.4fs |", c.Iters, c.Time)
			case c.Note != "":
				fmt.Fprintf(w, " %s |", c.Note)
			default:
				fmt.Fprint(w, " n.c. |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WritePhases renders the per-phase virtual-time breakdown of every cell
// that recorded one (Experiment.Observe set): one line per (P, column)
// pair, phases sorted by descending slowest-rank seconds. Cells without a
// breakdown are skipped.
func (t Table) WritePhases(w io.Writer) {
	any := false
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if len(c.Phases) > 0 {
				any = true
			}
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "%s — per-phase modeled time (slowest rank, seconds)\n", t.Title)
	for _, r := range t.Rows {
		for ci, c := range r.Cells {
			if len(c.Phases) == 0 {
				continue
			}
			name := ""
			if ci < len(t.Columns) {
				name = t.Columns[ci]
			}
			names := make([]string, 0, len(c.Phases))
			for ph := range c.Phases {
				names = append(names, ph)
			}
			sort.Slice(names, func(i, j int) bool {
				//lint:ignore floatcmp exact tie-break for a deterministic sort order, not a numeric test
				if c.Phases[names[i]] != c.Phases[names[j]] {
					return c.Phases[names[i]] > c.Phases[names[j]]
				}
				return names[i] < names[j]
			})
			fmt.Fprintf(w, "  P=%-3d %-16s", r.P, name)
			for _, ph := range names {
				fmt.Fprintf(w, " %s=%.4f", ph, c.Phases[ph])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// Write renders the table in the paper's layout.
func (t Table) Write(w io.Writer) {
	fmt.Fprintf(w, "%s  (N = %d unknowns)\n", t.Title, t.N)
	fmt.Fprintf(w, "%-5s", "P")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " | %-16s", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s", "")
	for range t.Columns {
		fmt.Fprintf(w, " | %6s %9s", "#itr", "time(s)")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 6+len(t.Columns)*19))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-5d", r.P)
		for _, c := range r.Cells {
			switch {
			case c.Converged:
				fmt.Fprintf(w, " | %6d %9.4f", c.Iters, c.Time)
			case c.Note != "":
				fmt.Fprintf(w, " | %16s", c.Note)
			default:
				fmt.Fprintf(w, " | %6s %9s", "n.c.", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
