// Command scaling reports parallel speedup and efficiency for one test
// case and preconditioner over a processor sweep — the quantities behind
// the paper's §4.3 discussion of fixed-size (strong) scaling: with a
// fixed global problem, communication overhead favors small P until
// subdomains fit in cache.
//
// Usage:
//
//	scaling -case tc1-poisson2d -precond "Schur 1" -size 129 -procs 1,2,4,8,16
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parapre"
	"parapre/internal/cases"
	"parapre/internal/dist"
	"parapre/internal/precond"
)

func main() {
	var (
		name    = flag.String("case", "tc1-poisson2d", "test case name")
		kind    = flag.String("precond", "Schur 1", "preconditioner, case-insensitive: "+precond.KindNames())
		size    = flag.Int("size", 0, "grid resolution (0 = case default)")
		procs   = flag.String("procs", "1,2,4,8,16", "processor counts")
		machine = flag.String("machine", "cluster", "machine model, case-insensitive: "+dist.MachineNames())
	)
	flag.Parse()
	pk, err := precond.ParseKind(*kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(2)
	}
	*kind = string(pk)
	mach, err := dist.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(2)
	}

	tc, err := cases.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scaling: unknown case %q\n", *name)
		os.Exit(2)
	}
	sz := tc.DefaultSize
	if *size > 0 {
		sz = *size
	}
	var ps []int
	for _, tok := range strings.Split(*procs, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "scaling: bad proc count %q\n", tok)
			os.Exit(2)
		}
		ps = append(ps, v)
	}

	prob := tc.Build(sz)
	fmt.Printf("%s, %d unknowns, %s, %s model\n", *name, prob.A.Rows, *kind, mach.Name)
	fmt.Printf("%-5s %-6s %-10s %-9s %-11s %-10s\n", "P", "#itr", "time(s)", "speedup", "efficiency", "time/itr")

	var t1 float64
	for _, p := range ps {
		cfg := parapre.DefaultConfig(p, pk)
		cfg.Machine = mach
		res, err := parapre.Solve(prob, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			os.Exit(1)
		}
		total := res.SetupTime + res.SolveTime
		if t1 == 0 {
			t1 = total * float64(ps[0])
			// Speedups are relative to the first sweep point, scaled as if
			// it were P=1 work (exact when the sweep starts at 1).
		}
		sp := t1 / total
		eff := sp / float64(p)
		perIter := total / float64(res.Iterations)
		conv := ""
		if !res.Converged {
			conv = "  (n.c.)"
		}
		fmt.Printf("%-5d %-6d %-10.4f %-9.2f %-11.2f %-10.5f%s\n",
			p, res.Iterations, total, sp, eff, perIter, conv)
	}
}
