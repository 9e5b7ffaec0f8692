package krylov

import (
	"math/rand"
	"testing"

	"parapre/internal/par"
	"parapre/internal/sparse"
)

// allocTestSystem builds a small well-conditioned system plus the serial
// matvec closure and inner product the solvers need. Everything is
// captured up front so the solve loop itself is the only thing measured.
func allocTestSystem(n int) (a *sparse.CSR, b []float64, matvec Op, dot Inner) {
	rng := rand.New(rand.NewSource(11))
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a = coo.ToCSR()
	b = make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	matvec = func(y, x []float64) { a.MulVecTo(y, x) }
	return a, b, matvec, Seq
}

// measureSteadyAllocs runs one warm-up solve (which sizes the workspace)
// and then measures allocations of subsequent solves. Workers are pinned
// to 1 so the parallel fan-out's closure allocations don't pollute the
// count — the pooling contract is about the solver's own temporaries.
func measureSteadyAllocs(t *testing.T, solve func()) float64 {
	t.Helper()
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	solve() // warm-up: grows the workspace buffers
	return testing.AllocsPerRun(10, solve)
}

// allocTestRow is one option set the zero-allocation tests solve with.
type allocTestRow struct {
	name     string
	opt      Options
	restarts bool // the solve must restart at least once
}

// allocTestRows are the plain solve, and one that runs every hook from a
// promised zero guess; under GMRES (restart > 0) it also restarts. Each
// hook is a closure made once up front that allocates nothing when
// called, as the distributed driver's are, so what is measured is the
// solver's own calls through them.
func allocTestRows(restart int) []allocTestRow {
	var flops float64
	end := func() {}
	hooked := Options{MaxIters: 60, Tol: 1e-10, ZeroGuess: true,
		Compute:  func(f float64) { flops += f },
		Stop:     func() bool { return false },
		Progress: func(int, float64) {},
		Span:     func(kind, name string) func() { return end },
	}
	if restart > 0 {
		hooked.Restart = 4
	}
	return []allocTestRow{
		{"plain", Options{Restart: restart, MaxIters: 60, Tol: 1e-10}, false},
		{"hooks", hooked, restart > 0},
	}
}

// measureSolveAllocs runs the solve of one row on a fresh workspace and
// fails the test unless it converges and the steady-state solves
// allocate nothing.
func measureSolveAllocs(t *testing.T, name string, row allocTestRow, solve func(Options) Result) {
	t.Helper()
	opt := row.opt
	opt.Work = NewWorkspace()
	var res Result
	got := measureSteadyAllocs(t, func() { res = solve(opt) })
	if !res.Converged {
		t.Fatalf("%s: not converged in %d iterations", name, res.Iterations)
	}
	if row.restarts && res.Restarts == 0 {
		t.Fatalf("%s: converged in %d iterations without a restart", name, res.Iterations)
	}
	if got != 0 {
		t.Fatalf("%s: pooled solve allocates %v objects per steady-state solve, want 0", name, got)
	}
}

// TestGMRESZeroAllocSteadyState pins the tentpole contract: a pooled
// GMRES solve allocates nothing once its workspace has been sized, with
// and without a (right) preconditioner, across restarts and through every
// hook.
func TestGMRESZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	precond := func(z, r []float64) { copy(z, r) }
	for _, prec := range []struct {
		name string
		m    Prec
	}{{"unpreconditioned", nil}, {"preconditioned", precond}} {
		for _, row := range allocTestRows(20) {
			measureSolveAllocs(t, prec.name+"/"+row.name, row, func(opt Options) Result {
				clear(x)
				return GMRES(n, matvec, prec.m, dot, b, x, opt)
			})
		}
	}
}

// TestFGMRESZeroAllocSteadyState covers the flexible variant, whose Z
// basis is the extra pooled store.
func TestFGMRESZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	precond := func(z, r []float64) { copy(z, r) }
	for _, row := range allocTestRows(15) {
		row.opt.Flexible = true
		measureSolveAllocs(t, row.name, row, func(opt Options) Result {
			clear(x)
			return GMRES(n, matvec, precond, dot, b, x, opt)
		})
	}
}

// TestCGZeroAllocSteadyState covers the CG hot path, with and without a
// preconditioner and through every hook.
func TestCGZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	precond := func(z, r []float64) { copy(z, r) }
	for _, prec := range []struct {
		name string
		m    Prec
	}{{"unpreconditioned", nil}, {"preconditioned", precond}} {
		for _, row := range allocTestRows(0) {
			measureSolveAllocs(t, prec.name+"/"+row.name, row, func(opt Options) Result {
				clear(x)
				return CG(n, matvec, prec.m, dot, b, x, opt)
			})
		}
	}
}

// TestWorkspaceReuseAcrossShapes checks that one workspace serves solves
// of different sizes and restart lengths (the Schur 1 usage: a short
// inner solve and a Schur solve of another dimension share nothing but
// the pattern).
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	for _, n := range []int{50, 200, 120} {
		_, b, matvec, dot := allocTestSystem(n)
		x := make([]float64, n)
		res := GMRES(n, matvec, nil, dot, b, x,
			Options{Restart: 10, MaxIters: 200, Tol: 1e-9, Work: ws})
		if !res.Converged {
			t.Fatalf("n=%d: pooled solve did not converge: %+v", n, res)
		}
		// The answer must match a fresh-workspace solve bitwise.
		xRef := make([]float64, n)
		GMRES(n, matvec, nil, dot, b, xRef,
			Options{Restart: 10, MaxIters: 200, Tol: 1e-9})
		for i := range x {
			if x[i] != xRef[i] {
				t.Fatalf("n=%d: pooled x[%d] = %x, fresh %x", n, i, x[i], xRef[i])
			}
		}
	}
}

// BenchmarkGMRESAllocating / BenchmarkGMRESPooled pair the nil-workspace
// and pooled solves (run with -benchmem to see the allocation delta).
func benchGMRES(b *testing.B, ws *Workspace) {
	n := 400
	_, rhs, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	opt := Options{Restart: 30, MaxIters: 60, Tol: 1e-12, Work: ws}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		GMRES(n, matvec, nil, dot, rhs, x, opt)
	}
}

func BenchmarkGMRESAllocating(b *testing.B) { benchGMRES(b, nil) }
func BenchmarkGMRESPooled(b *testing.B)     { benchGMRES(b, NewWorkspace()) }
