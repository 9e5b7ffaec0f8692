// Command ippsbench regenerates the tables of Cai & Sosonkina,
// "A Numerical Study of Some Parallel Algebraic Preconditioners"
// (IPPS 2003). Each experiment id corresponds to one table of the paper's
// §5; see DESIGN.md for the index.
//
// Usage:
//
//	ippsbench -list
//	ippsbench -exp tc1-cluster
//	ippsbench -exp tc1-cluster -size 257 -procs 2,4,8,16,32
//	ippsbench -all -size 65
//	ippsbench -exp tc1-cluster -workers 8 -json
//	ippsbench -exp tc1-cluster -faults drop -faultseed 3
//	ippsbench -exp tc1-cluster -procs 4 -precond "Schur 1" \
//	  -checkpoint bench.ckpt -checkpoint-every 5
//	ippsbench -exp tc1-cluster -procs 4 -precond "Schur 1" -restore bench.ckpt
//
// -workers pins the shared-memory worker pool (default: GOMAXPROCS, or
// the PARAPRE_WORKERS environment variable); iteration counts and modeled
// times are identical at every setting. -json additionally writes all
// measurements — iteration counts, modeled time, and measured wall-clock
// time — to BENCH_<date>.json.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"parapre/internal/bench"
	"parapre/internal/ckpt"
	"parapre/internal/dist"
	"parapre/internal/obs"
	"parapre/internal/par"
	"parapre/internal/precond"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exp     = flag.String("exp", "", "experiment id(s) to run, comma separated (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		size    = flag.Int("size", 0, "override the grid resolution parameter (0 = experiment default)")
		procs   = flag.String("procs", "", "override the processor counts, comma separated (e.g. 2,4,8)")
		md      = flag.Bool("markdown", false, "emit GitHub-flavored Markdown tables")
		jsonOut = flag.Bool("json", false, "also write results to BENCH_<date>.json")
		jsonTo  = flag.String("o", "", "JSON output path (implies -json; default BENCH_<date>.json)")
		compare = flag.String("compare", "", "compare modeled times against a committed BENCH_*.json baseline and fail on drift in either direction")
		tol     = flag.Float64("tol", 0.10, "relative modeled-time tolerance for -compare, on both sides")
		workers = flag.Int("workers", 0, "shared-memory worker count (0 = GOMAXPROCS / PARAPRE_WORKERS)")

		precKind  = flag.String("precond", "", "narrow every experiment to one preconditioner column, case-insensitive: "+precond.KindNames())
		ckptPath  = flag.String("checkpoint", "", "durable checkpoint file (requires a single-cell sweep: one -procs value, one -precond column)")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint the solver recurrence every N iterations (0 = off)")
		restore   = flag.String("restore", "", "resume the sweep's solve mid-recurrence from this checkpoint file")

		faults    = flag.String("faults", "", `chaos plan for every solve: "drop", "delay", "corrupt", "straggler" or "crash"`)
		faultSeed = flag.Int64("faultseed", 1, "chaos plan seed")
		resilient = flag.Bool("resilient", false, "run solves through the self-healing escalation ladder")

		trace   = flag.String("trace", "", "write a Chrome trace-event JSON covering every solve (one process per solve)")
		metrics = flag.String("metrics", "", "write a Prometheus-style text metrics snapshot covering every solve")
		phases  = flag.Bool("phases", false, "print the per-phase virtual-time breakdown under each table")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	if *pprofOn != "" {
		go func() {
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ippsbench: pprof:", err)
			}
		}()
	}

	if *list {
		fmt.Println("id            table")
		for _, e := range bench.Experiments() {
			fmt.Printf("%-13s %s\n", e.ID, e.Title)
		}
		return
	}

	var toRun []bench.Experiment
	switch {
	case *all:
		toRun = bench.Experiments()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			toRun = append(toRun, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "ippsbench: specify -exp <id>, -all, or -list")
		os.Exit(2)
	}

	if *procs != "" {
		ps, err := parseProcs(*procs)
		if err != nil {
			fatal(err)
		}
		for i := range toRun {
			toRun[i].Ps = ps
		}
	}

	if *precKind != "" {
		want, err := precond.ParseKind(*precKind)
		if err != nil {
			fatal(err)
		}
		for i := range toRun {
			if toRun[i].Schwarz {
				continue // Schwarz tables have no algebraic-preconditioner columns
			}
			var kept []precond.Kind
			for _, k := range toRun[i].Preconds {
				if k == want {
					kept = append(kept, k)
				}
			}
			if len(kept) == 0 {
				fatal(fmt.Errorf("%s: no preconditioner column %q", toRun[i].ID, *precKind))
			}
			toRun[i].Preconds = kept
		}
	}

	if *ckptEvery > 0 || *ckptPath != "" || *restore != "" {
		var ck *ckpt.Checkpoint
		if *restore != "" {
			var err error
			if ck, err = ckpt.Load(*restore); err != nil {
				fatal(err)
			}
		}
		for i := range toRun {
			toRun[i].CheckpointEvery = *ckptEvery
			toRun[i].CheckpointPath = *ckptPath
			toRun[i].Restore = ck
		}
	}

	if *faults != "" {
		plan, err := dist.NamedFaultPlan(*faults, *faultSeed)
		if err != nil {
			fatal(err)
		}
		for i := range toRun {
			toRun[i].Faults = plan
		}
		fmt.Printf("chaos: plan %q seed %d — typed failures appear as table notes\n\n", *faults, *faultSeed)
	}
	if *resilient {
		for i := range toRun {
			toRun[i].Resilient = true
		}
	}

	// With any observability output requested, every solve gets its own
	// collector; the exports carry the solve label ("<id>/<precond>/P=<p>").
	var observed []labeledCollector
	if *trace != "" || *metrics != "" || *phases {
		for i := range toRun {
			toRun[i].Observe = func(label string) *obs.Collector {
				col := obs.NewCollector()
				observed = append(observed, labeledCollector{label: label, col: col})
				return col
			}
		}
	}

	var allTables []bench.Table
	for _, e := range toRun {
		start := time.Now()
		tables, err := e.Run(*size)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			if *md {
				t.WriteMarkdown(os.Stdout)
			} else {
				t.Write(os.Stdout)
			}
			if *phases {
				t.WritePhases(os.Stdout)
			}
		}
		allTables = append(allTables, tables...)
		fmt.Printf("[%s completed in %.1fs real time]\n\n", e.ID, time.Since(start).Seconds())
	}

	if *trace != "" {
		entries := make([]obs.TraceEntry, len(observed))
		for i, lc := range observed {
			entries[i] = obs.TraceEntry{Name: lc.label, PID: i, Collector: lc.col}
		}
		if err := obs.WriteChromeTraceFile(*trace, entries, obs.TraceOptions{}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace %s (%d solves; open in chrome://tracing or https://ui.perfetto.dev)\n", *trace, len(entries))
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		for _, lc := range observed {
			if err := lc.col.WriteMetrics(f, map[string]string{"solve": lc.label}); err != nil {
				fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics %s (%d solves)\n", *metrics, len(observed))
	}

	if *jsonOut || *jsonTo != "" {
		date := time.Now().Format("2006-01-02")
		path := *jsonTo
		if path == "" {
			path = "BENCH_" + date + ".json"
		}
		if err := bench.NewReport(date, allTables).WriteFile(path); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (workers=%d)\n", path, par.Workers())
	}

	if *compare != "" {
		base, err := bench.ReadReport(*compare)
		if err != nil {
			fatal(err)
		}
		cur := bench.NewReport("", allTables)
		regs := bench.CompareModelTimes(base, cur, *tol)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "ippsbench: %d modeled-time difference(s) vs %s (tol %.0f%%):\n",
				len(regs), *compare, *tol*100)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
		fmt.Printf("modeled times within %.0f%% of %s\n", *tol*100, *compare)
	}
}

// labeledCollector pairs one solve's collector with its label for the
// post-run exports.
type labeledCollector struct {
	label string
	col   *obs.Collector
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("ippsbench: bad processor count %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ippsbench:", err)
	os.Exit(1)
}
