// Command solvepde solves one linear system — one of the paper's PDE test
// cases or any Matrix Market matrix — with a chosen parallel algebraic
// preconditioner and reports the paper's measurements (iteration count,
// modeled times) plus solution statistics.
//
// Usage:
//
//	solvepde -case tc1-poisson2d -p 8 -precond "Schur 1" -size 65
//	solvepde -matrix A.mtx [-rhs b.mtx] [-out x.mtx] -p 8 -precond "Schur 1"
//	solvepde -list
//
// The flags that describe the solve are a gateway.Spec, decoded as the
// parapred daemon decodes a POSTed one: the same defaults (a zero size or
// processor count is the default's) and the same refusals. Without -rhs an
// upload is solved for b = A·(1,…,1)ᵀ and the error against the all-ones
// solution is reported. -stats adds the partition (edge cut, subdomain
// sizes, imbalance, interface unknowns) to the per-rank breakdown.
//
// Chaos testing (see README "Chaos testing"): -faults injects a seeded
// deterministic fault plan and the run must either converge or end in a
// typed error — never hang, never panic:
//
//	solvepde -case tc1-poisson2d -p 4 -faults corrupt -faultseed 7 -resilient
//
// Checkpoint/restart (see README "Checkpoint/restart"): -checkpoint writes
// the solver recurrence atomically every -checkpoint-every iterations, and
// -restore resumes from it bit for bit, modeled clocks included:
//
//	solvepde -case tc1-poisson2d -p 4 -checkpoint tc1.ckpt -checkpoint-every 10
//	solvepde -case tc1-poisson2d -p 4 -restore tc1.ckpt
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"parapre"
	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/gateway"
	"parapre/internal/mmio"
	"parapre/internal/obs"
	"parapre/internal/partition"
	"parapre/internal/precond"
)

func mathLog10(x float64) float64 {
	if x <= 0 {
		return -18
	}
	return math.Log10(x)
}

// run is one command line: the spec of the solve, and the run-local
// choices applied on top of the configuration the spec builds.
type run struct {
	spec gateway.Spec
	name string // the case, or the matrix file

	list, simple, verify, history, stats, phases bool

	plan     *dist.FaultPlan
	faults   string
	watchdog time.Duration

	trace, metrics, pprof  string
	ckptPath, restore, out string
	matPath, rhsPath       string
}

// parseArgs decodes a command line into a validated spec and the run-local
// choices. A malformed flag exits; the errors are a spec the daemon would
// refuse too, an unreadable upload and an unknown fault plan.
func parseArgs(args []string) (*run, error) {
	r := &run{}
	s := &r.spec
	var faultSeed int64
	fs := flag.NewFlagSet("solvepde", flag.ExitOnError)
	fs.BoolVar(&r.list, "list", false, "list test cases and exit")
	fs.StringVar(&s.Case, "case", "tc1-poisson2d", "test case name (ignored with -matrix unless given)")
	fs.IntVar(&s.Procs, "p", 4, "number of (simulated) processors (0 = 4)")
	fs.IntVar(&s.Size, "size", 0, "grid resolution parameter (0 = case default)")
	fs.StringVar(&s.Precond, "precond", "Schur 1", "preconditioner, case-insensitive: "+precond.KindNames())
	fs.StringVar(&s.Machine, "machine", "cluster", "machine model, case-insensitive: "+dist.MachineNames())
	fs.BoolVar(&r.simple, "simple", false, "use the simple (box) partitioning scheme")
	fs.BoolVar(&r.verify, "verify", false, "compare against a tight sequential reference solve")
	fs.BoolVar(&r.history, "history", false, "print the residual convergence curve")
	fs.BoolVar(&r.stats, "stats", false, "print the partition and the per-rank compute/communication breakdown")

	fs.StringVar(&r.matPath, "matrix", "", "solve this Matrix Market matrix instead of a test case")
	fs.StringVar(&r.rhsPath, "rhs", "", "Matrix Market array file with the right-hand side (default: A·ones)")
	fs.StringVar(&r.out, "out", "", "write the solution as a Matrix Market array file")
	fs.Float64Var(&s.Tol, "tol", 0, "relative residual tolerance (0 = 1e-6)")
	fs.BoolVar(&s.RCM, "rcm", false, "RCM-reorder subdomain blocks before factoring (Block 1/2)")

	fs.StringVar(&r.faults, "faults", "", `chaos plan: "drop", "delay", "corrupt", "straggler" or "crash"`)
	fs.Int64Var(&faultSeed, "faultseed", 1, "chaos plan seed (same seed ⇒ same faults)")
	fs.DurationVar(&r.watchdog, "watchdog", 0, "deadlock watchdog budget (0 = default with -faults, off otherwise)")
	fs.BoolVar(&s.Resilient, "resilient", false, "self-heal breakdowns: fresh restart, then fallback preconditioner")

	fs.StringVar(&r.trace, "trace", "", "write a Chrome trace-event JSON of the solve (open in chrome://tracing or Perfetto)")
	fs.StringVar(&r.metrics, "metrics", "", "write a Prometheus-style text metrics snapshot of the solve")
	fs.BoolVar(&r.phases, "phases", false, "print the per-phase virtual-time breakdown")
	fs.StringVar(&r.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

	fs.StringVar(&r.ckptPath, "checkpoint", "", "durable checkpoint file, rewritten atomically every -checkpoint-every iterations")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 0, "checkpoint the solver recurrence every N iterations (0 = off)")
	fs.StringVar(&r.restore, "restore", "", "resume the solve mid-recurrence from this checkpoint file")
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits
	if r.list {
		return r, nil
	}

	r.name = s.Case
	if r.matPath != "" {
		caseSet := false
		fs.Visit(func(f *flag.Flag) { caseSet = caseSet || f.Name == "case" })
		if !caseSet {
			s.Case = ""
		}
		r.name = r.matPath
	}
	var err error
	if s.Matrix, err = readText(r.matPath); err != nil {
		return nil, err
	}
	if s.RHS, err = readText(r.rhsPath); err != nil {
		return nil, err
	}
	s.ReturnX = r.verify || r.out != "" || s.Matrix != ""
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if r.faults != "" {
		plan, err := parapre.NamedFaultPlan(r.faults, faultSeed)
		if err != nil {
			return nil, err
		}
		r.plan = plan
	}
	return r, nil
}

// readText returns the file's contents, and "" for no path. The text is
// read into the string's own buffer, not copied out of a byte slice.
func readText(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var b strings.Builder
	if fi, err := f.Stat(); err == nil {
		b.Grow(int(fi.Size()))
	}
	_, err = io.Copy(&b, f)
	return b.String(), err
}

// setup builds the problem and configuration the spec describes and
// applies the run-local choices to the configuration.
func (r *run) setup() (*core.Problem, core.Config, error) {
	prob, err := r.spec.BuildProblem()
	if err != nil {
		return nil, core.Config{}, err
	}
	r.spec.Matrix, r.spec.RHS = "", "" // parsed: the text is not kept beside the matrix
	cfg := r.spec.BuildConfig()
	if r.simple {
		cfg.Scheme = core.PartitionSimple
	}
	cfg.Solver.RecordHistory = r.history
	cfg.Faults = r.plan
	cfg.Watchdog = r.watchdog
	cfg.CheckpointEvery = r.spec.CheckpointEvery
	cfg.CheckpointPath = r.ckptPath
	if r.restore != "" {
		ck, err := ckpt.Load(r.restore)
		if err != nil {
			return nil, core.Config{}, fmt.Errorf("restore: %w", err)
		}
		cfg.Restore = ck
	}
	if r.trace != "" || r.metrics != "" || r.phases {
		cfg.Collector = obs.NewCollector()
	}
	return prob, cfg, nil
}

func main() {
	r, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "solvepde:", err)
		os.Exit(2)
	}

	if r.pprof != "" {
		go func() {
			if err := http.ListenAndServe(r.pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "solvepde: pprof:", err)
			}
		}()
	}

	if r.list {
		for _, c := range parapre.Cases() {
			fmt.Printf("%-18s %s\n", c.Name, c.Description)
		}
		return
	}

	prob, cfg, err := r.setup()
	if err != nil {
		fatal(err)
	}
	kind, chaos := r.spec.Precond, r.plan != nil
	label := fmt.Sprintf("%s/%s/P=%d", r.name, kind, cfg.P)

	source := map[bool]string{false: "case", true: "matrix"}[r.matPath != ""]
	fmt.Printf("%s %s: %d unknowns, P = %d, %s, %s partitioning, machine %s\n",
		source, r.name, prob.A.Rows, cfg.P, kind,
		map[bool]string{false: "general", true: "simple"}[r.simple && prob.Mesh != nil], cfg.Machine.Name)
	if chaos {
		fmt.Printf("chaos: plan %q seed %d (converge-or-typed-error contract)\n", r.faults, r.plan.Seed)
	}

	res, err := parapre.Solve(prob, cfg)
	if err != nil {
		// Under chaos the contract is converge OR typed error: a deadlock
		// or crash report is a successful detection, not a tool failure.
		// The spans and counters recorded up to the failure are still
		// exported — a trace of a deadlock is exactly what one wants.
		if chaos && reportFault(err) {
			writeObs(cfg.Collector, label, r.trace, r.metrics)
			return
		}
		fatal(err)
	}
	writeObs(cfg.Collector, label, r.trace, r.metrics)
	status := "converged"
	if !res.Converged {
		status = "NOT converged"
	}
	fmt.Printf("%s in %d FGMRES(20) iterations (relative residual %.2e", status, res.Iterations, res.Residual)
	if r.matPath != "" {
		fmt.Printf(", true %.2e", res.TrueRelRes)
	}
	fmt.Println(")")
	if res.Err != nil {
		fmt.Printf("solver error: %v\n", res.Err)
	}
	if res.Recovery != nil && len(res.Recovery.Steps) > 0 {
		fmt.Println("recovery log:")
		for _, st := range res.Recovery.Steps {
			outcome := "failed"
			if st.Converged {
				outcome = "converged"
			}
			fmt.Printf("  stage %-12s attempt %d: %s after %d iterations", st.Stage, st.Attempt, outcome, st.Iterations)
			if st.Err != nil {
				fmt.Printf(" (%v)", st.Err)
			}
			fmt.Println()
		}
		if res.Recovery.Recovered {
			fmt.Println("  solve recovered by the escalation ladder")
		}
	}
	fmt.Printf("modeled time: setup %.4fs + solve %.4fs = %.4fs\n",
		res.SetupTime, res.SolveTime, res.SetupTime+res.SolveTime)
	var msgs, sent int
	for _, s := range res.PerRank {
		msgs += s.MsgsSent
		sent += s.BytesSent
	}
	fmt.Printf("communication: %d messages, %.1f KiB total\n", msgs, float64(sent)/1024)

	if r.stats {
		line, err := partitionLine(prob, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		fmt.Println("per-rank breakdown (modeled):")
		fmt.Printf("  %-5s %-11s %-11s %-10s %-10s %-9s %-10s\n", "rank", "compute(s)", "comm(s)", "fault(s)", "comm%", "msgs", "Mflops")
		for _, s := range res.PerRank {
			fmt.Printf("  %-5d %-11.4f %-11.4f %-10.4f %-10.1f %-9d %-10.1f\n",
				s.Rank, s.ComputeTime, s.CommTime, s.FaultDelay, 100*s.CommTime/s.Clock, s.MsgsSent, s.Flops/1e6)
		}
	}

	if r.phases && len(res.PhaseBreakdown) > 0 {
		fmt.Println("per-phase breakdown (modeled, virtual seconds):")
		fmt.Printf("  %-15s %-8s %-12s %-12s %-12s %-10s\n", "phase", "spans", "total(s)", "max-rank(s)", "Mflops", "KiB")
		for _, ps := range res.PhaseBreakdown {
			fmt.Printf("  %-15s %-8d %-12.4f %-12.4f %-12.1f %-10.1f\n",
				ps.Phase, ps.Count, ps.TotalSeconds, ps.MaxSeconds, ps.Flops/1e6, float64(ps.Bytes)/1024)
		}
	}

	if r.history && len(res.History) > 0 {
		fmt.Println("residual convergence (relative to initial):")
		r0 := res.History[0]
		for i, r := range res.History {
			bar := int(60 + 6*mathLog10(r/r0)) // 60 chars at 1.0, −10 chars per decade
			if bar < 0 {
				bar = 0
			}
			fmt.Printf("  %4d  %9.3e  %s\n", i, r/r0, strings.Repeat("#", bar))
		}
	}

	if r.verify {
		d, err := parapre.Verify(prob, res.X)
		if err != nil {
			fatal(fmt.Errorf("verify: %w", err))
		}
		fmt.Printf("max |x − x_ref| = %.3e (true relative residual %.2e)\n", d, res.TrueRelRes)
	}
	if r.matPath != "" && r.rhsPath == "" {
		var maxErr float64
		for _, v := range res.X {
			maxErr = max(maxErr, math.Abs(v-1))
		}
		fmt.Printf("max |x − 1| = %.3e (exact solution is all-ones)\n", maxErr)
	}
	if r.out != "" {
		var buf bytes.Buffer
		if err := mmio.WriteVector(&buf, res.X); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(r.out, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("solution written to %s\n", r.out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "solvepde:", err)
	os.Exit(1)
}

// partitionLine reports the partition the solve distributed, read from the
// subdomain systems it kept in the problem: the edge cut of the matrix
// graph, the subdomain sizes and their imbalance, and the interface
// unknowns, those coupled to another subdomain.
func partitionLine(prob *core.Problem, cfg core.Config) (string, error) {
	systems, err := prob.Systems(cfg)
	if err != nil {
		return "", err
	}
	part := make([]int, prob.A.Rows)
	sizes := make([]int, len(systems))
	iface := 0
	for rank, s := range systems {
		for _, g := range s.GlobalIDs {
			part[g] = rank
		}
		sizes[rank] = s.NLoc()
		iface += s.NIface()
	}
	return fmt.Sprintf("partition: edge cut %d, subdomain sizes %d..%d, imbalance %.3f, interface unknowns %d (%.1f%%)",
		partition.EdgeCut(core.PatternGraph(prob.A), part), slices.Min(sizes), slices.Max(sizes),
		partition.Imbalance(part, cfg.P), iface, 100*float64(iface)/float64(len(part))), nil
}

// writeObs exports the recorded observability data to the requested
// files. Nil collector or empty paths are no-ops.
func writeObs(col *obs.Collector, label, tracePath, metricsPath string) {
	if col == nil {
		return
	}
	if tracePath != "" {
		entry := obs.TraceEntry{Name: label, PID: 0, Collector: col}
		if err := obs.WriteChromeTraceFile(tracePath, []obs.TraceEntry{entry}, obs.TraceOptions{}); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", tracePath)
	}
	if metricsPath != "" {
		if err := col.WriteMetricsFile(metricsPath, map[string]string{"solve": label}); err != nil {
			fatal(fmt.Errorf("metrics: %w", err))
		}
		fmt.Printf("wrote metrics %s\n", metricsPath)
	}
}

// reportFault prints a typed runtime failure of a chaos run and reports
// whether the error satisfies the converge-or-typed-error contract. An
// escaped rank panic or any other error is a real failure and returns
// false.
func reportFault(err error) bool {
	var de *parapre.DeadlockError
	var ce *parapre.CrashError
	switch {
	case errors.As(err, &de):
		fmt.Printf("typed failure: %v\n", de)
		fmt.Println("per-rank diagnostics at abort:")
		for _, r := range de.Ranks {
			state := "running"
			switch {
			case r.Crashed:
				state = "crashed"
			case r.Done:
				state = "done"
			case r.Blocked:
				state = "blocked"
			}
			fmt.Printf("  rank %-3d %-8s last op %-10s peer %-3d tag %-4d clock %.6fs (%d ops)\n",
				r.Rank, state, r.LastOp, r.Peer, r.Tag, r.Clock, r.Ops)
		}
		return true
	case errors.As(err, &ce):
		fmt.Printf("typed failure: %v\n", ce)
		return true
	default:
		var pc *dist.PeerCrashedError
		var tm *dist.TagMismatchError
		if errors.As(err, &pc) || errors.As(err, &tm) {
			fmt.Printf("typed failure: %v\n", err)
			return true
		}
	}
	return false
}
