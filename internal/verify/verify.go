// Package verify is the differential-oracle harness: every numerical
// layer of the repository — factorizations, Schur operators,
// preconditioners, distributed Krylov solvers, and the algebraic
// plumbing underneath them — is cross-checked against an independent
// reference on small, seeded random problems and on the paper's test
// cases. The lint suite and the paranoid build tag check structure and
// finiteness; this package checks the mathematics.
//
// The oracle hierarchy (see DESIGN.md §14) is bottom-up: dense linear
// algebra and exact algebraic identities validate the sparse kernels,
// the validated kernels compose into references for the factorizations,
// complete (no-dropping) factorizations turn the incomplete-LU machinery
// into exact oracles for the Schur operators, and a sequential replay of
// the distributed arithmetic pins the parallel solvers to their
// sequential counterparts down to the last bit.
//
// Every check is a deterministic function of its Config; a reported
// violation carries a minimized reproducer (smallest n and seed that
// still fail) so the failure can be replayed in isolation.
package verify

import (
	"fmt"
	"sort"
	"strings"
)

// Violation is one oracle disagreement.
type Violation struct {
	Check  string // name of the violated check
	Detail string // what disagreed, with the offending numbers
	Repro  string // minimized reproducer parameters ("n=6 seed=3 P=2")
}

func (v Violation) String() string {
	if v.Repro == "" {
		return fmt.Sprintf("%s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("%s: %s [repro: %s]", v.Check, v.Detail, v.Repro)
}

// Config controls a harness run.
type Config struct {
	// Seed offsets every generator: two runs with the same Seed are
	// identical, and the weekly CI run randomizes it.
	Seed int64
	// Quick restricts each check to its smallest sizes and trial counts —
	// the CI smoke setting. The full run sweeps larger grids.
	Quick bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Check is one named oracle comparison.
type Check struct {
	Name string
	Desc string
	Run  func(cfg Config) []Violation
}

// Checks returns the full ordered registry, bottom of the oracle
// hierarchy first.
func Checks() []Check {
	return []Check{
		{"spmv-dense", "sparse kernels (SpMV, add/sub, transpose, dot) vs dense references", checkSpMVDense},
		{"perm-identity", "permutations: P·Pᵀ = I, RCM validity, PermuteSym vs dense congruence", checkPermIdentity},
		{"partition-valid", "graph partitions cover every vertex: P=1, P>n, disconnected graphs", checkPartitionValid},
		{"coo-csr", "COO→CSR assembly: duplicate merging vs dense accumulation", checkCOOCSR},
		{"mmio-roundtrip", "Matrix Market write→read→write: byte stability and CSR equality", checkMMIORoundTrip},
		{"distribute-reassembly", "dsys.Distribute: local matrices reassemble the global matrix exactly", checkDistributeReassembly},
		{"factor-complete", "complete ILUT product reproduces A; its solve matches dense LU", checkFactorComplete},
		{"factor-incomplete", "incomplete factor Solve inverts the factor product exactly", checkFactorIncomplete},
		{"factor-ic", "IC0: Lt = Lᵀ, complete-pattern IC reproduces SPD A, solve matches dense", checkFactorIC},
		{"factor-zero-pivot", "structurally zero rows are refused with typed errors, never floored", checkFactorZeroPivot},
		{"schur-trailing", "trailing factors of a complete LU multiply back to the exact Schur complement", checkSchurTrailing},
		{"schur-operator", "matrix-free distributed Schur operator vs dense C − E·B⁻¹·F", checkSchurOperator},
		{"fft-poisson", "DST fast Poisson solve vs dense 5-point Laplacian solve", checkFFTPoisson},
		{"precond-block", "block preconditioner Apply vs dense solve composed from its factors", checkPrecondBlock},
		{"precond-schur1", "Schur 1 with exact settings inverts the global matrix", checkPrecondSchur1},
		{"precond-schur2", "Schur 2 with exact settings inverts the global matrix", checkPrecondSchur2},
		{"precond-schwarz", "additive Schwarz Apply vs independently composed subdomain solves", checkPrecondSchwarz},
		{"dist-vs-seq", "distributed GMRES/FGMRES/CG at P∈{2,4,8} vs sequential replay: identical iterations, histories within 1e-12", checkDistVsSeq},
		{"paper-cases", "factor, Schur and distributed oracles over the paper's test cases", checkPaperCases},
	}
}

// Report aggregates a run.
type Report struct {
	Ran        []string
	Violations []Violation
}

// Failed reports whether any check produced a violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders the outcome as text.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d checks run, %d violations\n", len(r.Ran), len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	return b.String()
}

// Run executes the checks whose names contain filter (all when filter is
// empty) and aggregates their violations.
func Run(cfg Config, filter string) *Report {
	rep := &Report{}
	for _, ck := range Checks() {
		if filter != "" && !strings.Contains(ck.Name, filter) {
			continue
		}
		cfg.logf("check %-22s %s", ck.Name, ck.Desc)
		vs := ck.Run(cfg)
		rep.Ran = append(rep.Ran, ck.Name)
		if len(vs) > 0 {
			sort.Slice(vs, func(i, j int) bool { return vs[i].Detail < vs[j].Detail })
			cfg.logf("check %-22s FAILED (%d violations)", ck.Name, len(vs))
			rep.Violations = append(rep.Violations, vs...)
		}
	}
	return rep
}
