// Command solvepde solves one of the paper's six PDE test cases with a
// chosen parallel algebraic preconditioner and reports the paper's
// measurements (iteration count, modeled times) plus solution statistics.
//
// Usage:
//
//	solvepde -case tc1-poisson2d -p 8 -precond "Schur 1" -size 65
//	solvepde -list
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
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"parapre"
	"parapre/internal/cases"
	"parapre/internal/ckpt"
	"parapre/internal/dist"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

func mathLog10(x float64) float64 {
	if x <= 0 {
		return -18
	}
	return math.Log10(x)
}

func main() {
	var (
		list    = flag.Bool("list", false, "list test cases and exit")
		name    = flag.String("case", "tc1-poisson2d", "test case name")
		p       = flag.Int("p", 4, "number of (simulated) processors")
		size    = flag.Int("size", 0, "grid resolution parameter (0 = case default)")
		kind    = flag.String("precond", "Schur 1", "preconditioner, case-insensitive: "+precond.KindNames())
		machine = flag.String("machine", "cluster", "machine model, case-insensitive: "+dist.MachineNames())
		simple  = flag.Bool("simple", false, "use the simple (box) partitioning scheme")
		verify  = flag.Bool("verify", false, "compare against a tight sequential reference solve")
		history = flag.Bool("history", false, "print the residual convergence curve")
		stats   = flag.Bool("stats", false, "print the per-rank compute/communication breakdown")

		faults    = flag.String("faults", "", `chaos plan: "drop", "delay", "corrupt", "straggler" or "crash"`)
		faultSeed = flag.Int64("faultseed", 1, "chaos plan seed (same seed ⇒ same faults)")
		watchdog  = flag.Duration("watchdog", 0, "deadlock watchdog budget (0 = default with -faults, off otherwise)")
		resilient = flag.Bool("resilient", false, "self-heal breakdowns: fresh restart, then fallback preconditioner")

		trace   = flag.String("trace", "", "write a Chrome trace-event JSON of the solve (open in chrome://tracing or Perfetto)")
		metrics = flag.String("metrics", "", "write a Prometheus-style text metrics snapshot of the solve")
		phases  = flag.Bool("phases", false, "print the per-phase virtual-time breakdown")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		ckptPath  = flag.String("checkpoint", "", "durable checkpoint file, rewritten atomically every -checkpoint-every iterations")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint the solver recurrence every N iterations (0 = off)")
		restore   = flag.String("restore", "", "resume the solve mid-recurrence from this checkpoint file")
	)
	flag.Parse()
	pk, err := precond.ParseKind(*kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solvepde:", err)
		os.Exit(2)
	}
	*kind = string(pk)
	mach, err := dist.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solvepde:", err)
		os.Exit(2)
	}

	if *pprofOn != "" {
		go func() {
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintln(os.Stderr, "solvepde: pprof:", err)
			}
		}()
	}

	if *list {
		for _, c := range parapre.Cases() {
			fmt.Printf("%-18s %s\n", c.Name, c.Description)
		}
		return
	}

	tc, err := cases.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solvepde: unknown case %q (try -list)\n", *name)
		os.Exit(2)
	}
	sz := tc.DefaultSize
	if *size > 0 {
		sz = *size
	}

	prob := tc.Build(sz)
	cfg := parapre.DefaultConfig(*p, pk)
	cfg.Machine = mach
	if *simple {
		cfg.Scheme = parapre.PartitionSimple
	}
	cfg.KeepX = *verify
	cfg.Solver.RecordHistory = *history
	cfg.Watchdog = *watchdog
	cfg.Resilient = *resilient
	cfg.CheckpointEvery = *ckptEvery

	cfg.CheckpointPath = *ckptPath
	if *restore != "" {
		ck, lerr := ckpt.Load(*restore)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "solvepde: restore:", lerr)
			os.Exit(1)
		}
		cfg.Restore = ck
	}
	chaos := *faults != ""
	if chaos {
		plan, err := parapre.NamedFaultPlan(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "solvepde:", err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}
	label := fmt.Sprintf("%s/%s/P=%d", *name, *kind, *p)
	if *trace != "" || *metrics != "" || *phases {
		cfg.Collector = obs.NewCollector()
	}

	fmt.Printf("case %s: %d unknowns, P = %d, %s, %s partitioning, machine %s\n",
		*name, prob.A.Rows, *p, *kind, map[bool]string{false: "general", true: "simple"}[*simple],
		cfg.Machine.Name)
	if chaos {
		fmt.Printf("chaos: plan %q seed %d (converge-or-typed-error contract)\n", *faults, *faultSeed)
	}

	res, err := parapre.Solve(prob, cfg)
	if err != nil {
		// Under chaos the contract is converge OR typed error: a deadlock
		// or crash report is a successful detection, not a tool failure.
		// The spans and counters recorded up to the failure are still
		// exported — a trace of a deadlock is exactly what one wants.
		if chaos && reportFault(err) {
			writeObs(cfg.Collector, label, *trace, *metrics)
			return
		}
		fmt.Fprintln(os.Stderr, "solvepde:", err)
		os.Exit(1)
	}
	writeObs(cfg.Collector, label, *trace, *metrics)
	status := "converged"
	if !res.Converged {
		status = "NOT converged"
	}
	fmt.Printf("%s in %d FGMRES(20) iterations (relative residual %.2e)\n",
		status, res.Iterations, res.Residual)
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
	var msgs, bytes int
	for _, s := range res.PerRank {
		msgs += s.MsgsSent
		bytes += s.BytesSent
	}
	fmt.Printf("communication: %d messages, %.1f KiB total\n", msgs, float64(bytes)/1024)

	if *stats {
		fmt.Println("per-rank breakdown (modeled):")
		fmt.Printf("  %-5s %-11s %-11s %-10s %-10s %-9s %-10s\n", "rank", "compute(s)", "comm(s)", "fault(s)", "comm%", "msgs", "Mflops")
		for _, s := range res.PerRank {
			fmt.Printf("  %-5d %-11.4f %-11.4f %-10.4f %-10.1f %-9d %-10.1f\n",
				s.Rank, s.ComputeTime, s.CommTime, s.FaultDelay, 100*s.CommTime/s.Clock, s.MsgsSent, s.Flops/1e6)
		}
	}

	if *phases && len(res.PhaseBreakdown) > 0 {
		fmt.Println("per-phase breakdown (modeled, virtual seconds):")
		fmt.Printf("  %-15s %-8s %-12s %-12s %-12s %-10s\n", "phase", "spans", "total(s)", "max-rank(s)", "Mflops", "KiB")
		for _, ps := range res.PhaseBreakdown {
			fmt.Printf("  %-15s %-8d %-12.4f %-12.4f %-12.1f %-10.1f\n",
				ps.Phase, ps.Count, ps.TotalSeconds, ps.MaxSeconds, ps.Flops/1e6, float64(ps.Bytes)/1024)
		}
	}

	if *history && len(res.History) > 0 {
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

	if *verify {
		d, err := parapre.Verify(prob, res.X)
		if err != nil {
			fmt.Fprintln(os.Stderr, "solvepde: verify:", err)
			os.Exit(1)
		}
		fmt.Printf("max |x − x_ref| = %.3e (true relative residual %.2e)\n", d, res.TrueRelRes)
	}
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
			fmt.Fprintln(os.Stderr, "solvepde: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace %s (open in chrome://tracing or https://ui.perfetto.dev)\n", tracePath)
	}
	if metricsPath != "" {
		if err := col.WriteMetricsFile(metricsPath, map[string]string{"solve": label}); err != nil {
			fmt.Fprintln(os.Stderr, "solvepde: metrics:", err)
			os.Exit(1)
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
