// Command mmsolve runs the paper's parallel algebraic preconditioners on
// an arbitrary sparse matrix in Matrix Market format — the pARMS-style
// workflow for matrices that do not come from this repository's built-in
// test cases. The partitioner works on the symmetrized sparsity graph.
//
// Usage:
//
//	mmsolve -matrix A.mtx -p 8 -precond "Schur 1"
//	mmsolve -matrix A.mtx -rhs b.mtx -out x.mtx
//
// Without -rhs the right-hand side is A·(1,…,1)ᵀ, so the exact solution
// is the all-ones vector and the reported error is meaningful.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"parapre"
	"parapre/internal/dist"
	"parapre/internal/mmio"
	"parapre/internal/precond"
)

func main() {
	var (
		matPath = flag.String("matrix", "", "Matrix Market file with the system matrix (required)")
		rhsPath = flag.String("rhs", "", "Matrix Market array file with the right-hand side (default: A·ones)")
		outPath = flag.String("out", "", "write the solution as a Matrix Market array file")
		p       = flag.Int("p", 4, "number of (simulated) processors")
		kind    = flag.String("precond", "Schur 1", "preconditioner, case-insensitive: "+precond.KindNames())
		machine = flag.String("machine", "cluster", "machine model, case-insensitive: "+dist.MachineNames())
		rcm     = flag.Bool("rcm", false, "RCM-reorder subdomain blocks before factoring (Block 1/2)")
		tol     = flag.Float64("tol", 1e-6, "relative residual tolerance")
	)
	flag.Parse()
	if *matPath == "" {
		fmt.Fprintln(os.Stderr, "mmsolve: -matrix is required")
		os.Exit(2)
	}
	pk, err := precond.ParseKind(*kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmsolve:", err)
		os.Exit(2)
	}
	*kind = string(pk)
	mach, err := dist.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmsolve:", err)
		os.Exit(2)
	}

	mf, err := os.Open(*matPath)
	if err != nil {
		fatal(err)
	}
	defer mf.Close()
	var rhs io.Reader
	onesRHS := *rhsPath == ""
	if !onesRHS {
		rf, err := os.Open(*rhsPath)
		if err != nil {
			fatal(err)
		}
		defer rf.Close()
		rhs = rf
	}
	a, b, err := mmio.ReadSystem(mf, rhs)
	if err != nil {
		fatal(err)
	}

	prob := &parapre.Problem{Name: *matPath, A: a, B: b}
	cfg := parapre.DefaultConfig(*p, pk)
	cfg.Solver.Tol = *tol
	cfg.RCM = *rcm
	cfg.KeepX = true
	cfg.Machine = mach

	fmt.Printf("%s: %d unknowns, %d nonzeros, P = %d, %s\n",
		*matPath, a.Rows, a.NNZ(), *p, *kind)
	res, err := parapre.Solve(prob, cfg)
	if err != nil {
		fatal(err)
	}
	status := "converged"
	if !res.Converged {
		status = "NOT converged"
	}
	fmt.Printf("%s in %d iterations (relative residual %.2e, true %.2e)\n",
		status, res.Iterations, res.Residual, res.TrueRelRes)
	fmt.Printf("modeled time: %.4fs setup + %.4fs solve\n", res.SetupTime, res.SolveTime)

	if onesRHS {
		var maxErr float64
		for _, v := range res.X {
			if e := math.Abs(v - 1); e > maxErr {
				maxErr = e
			}
		}
		fmt.Printf("max |x − 1| = %.3e (exact solution is all-ones)\n", maxErr)
	}
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := mmio.WriteVector(of, res.X); err != nil {
			fatal(err)
		}
		if err := of.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("solution written to %s\n", *outPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmsolve:", err)
	os.Exit(1)
}
