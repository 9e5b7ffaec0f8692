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

// TestGMRESZeroAllocSteadyState pins the tentpole contract: a pooled
// GMRES solve allocates nothing once its workspace has been sized.
//
// alloctest: krylov.GMRES
func TestGMRESZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	ws := NewWorkspace()
	opt := Options{Restart: 20, MaxIters: 40, Tol: 1e-10, Work: ws}
	solve := func() {
		for i := range x {
			x[i] = 0
		}
		GMRES(n, matvec, nil, dot, b, x, opt)
	}
	if got := measureSteadyAllocs(t, solve); got != 0 {
		t.Fatalf("pooled GMRES allocates %v objects per steady-state solve, want 0", got)
	}
}

// TestFGMRESZeroAllocSteadyState covers the flexible variant, whose Z
// basis is the extra pooled store (FGMRES is GMRES with opt.Flexible, so
// it maps to the same annotated function).
//
// alloctest: krylov.GMRES
func TestFGMRESZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	ws := NewWorkspace()
	precond := func(z, r []float64) { copy(z, r) }
	opt := Options{Restart: 15, MaxIters: 30, Tol: 1e-10, Flexible: true, Work: ws}
	solve := func() {
		for i := range x {
			x[i] = 0
		}
		GMRES(n, matvec, precond, dot, b, x, opt)
	}
	if got := measureSteadyAllocs(t, solve); got != 0 {
		t.Fatalf("pooled FGMRES allocates %v objects per steady-state solve, want 0", got)
	}
}

// TestCGZeroAllocSteadyState covers the CG hot path.
//
// alloctest: krylov.CG
func TestCGZeroAllocSteadyState(t *testing.T) {
	n := 200
	_, b, matvec, dot := allocTestSystem(n)
	x := make([]float64, n)
	ws := NewWorkspace()
	opt := Options{MaxIters: 50, Tol: 1e-10, Work: ws}
	solve := func() {
		for i := range x {
			x[i] = 0
		}
		CG(n, matvec, nil, dot, b, x, opt)
	}
	if got := measureSteadyAllocs(t, solve); got != 0 {
		t.Fatalf("pooled CG allocates %v objects per steady-state solve, want 0", got)
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
