package krylov

import (
	"errors"
	"math"
	"strings"
	"testing"

	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// ident is the identity operator, handy for constructing exact systems.
func ident(y, x []float64) { copy(y, x) }

func TestGMRESBreakdownOnNaNRHS(t *testing.T) {
	n := 8
	b := make([]float64, n)
	b[3] = math.NaN()
	x := make([]float64, n)
	res := GMRES(n, ident, nil, Seq, b, x, Options{Restart: 4, MaxIters: 20, Tol: 1e-10})
	if !res.Breakdown {
		t.Fatalf("expected breakdown on NaN rhs: %+v", res)
	}
	if !errors.Is(res.Err, ErrBreakdown) {
		t.Fatalf("Err does not wrap ErrBreakdown: %v", res.Err)
	}
	var be *BreakdownError
	if !errors.As(res.Err, &be) {
		t.Fatalf("Err is not a *BreakdownError: %v", res.Err)
	}
	if be.Method != "GMRES" || be.Iteration != 0 {
		t.Fatalf("unexpected breakdown metadata: %+v", be)
	}
	if res.Converged {
		t.Fatalf("NaN solve must not report convergence: %+v", res)
	}
}

func TestGMRESBreakdownOnPoisonedOperator(t *testing.T) {
	// The operator behaves for the first application (the residual) and
	// then starts emitting NaN, poisoning the Arnoldi vector norms.
	n := 6
	calls := 0
	poison := func(y, x []float64) {
		copy(y, x)
		calls++
		if calls > 1 {
			y[0] = math.NaN()
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i)
	}
	x := make([]float64, n)
	if paranoid.Enabled {
		// Under the paranoid tag the NaN trips an invariant check inside
		// the Arnoldi loop before the graceful breakdown path can run —
		// the fail-fast behavior that tag exists for.
		defer func() {
			r := recover()
			if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "paranoid: ") {
				t.Fatalf("expected a paranoid panic, got %v", r)
			}
		}()
	}
	res := GMRES(n, poison, nil, Seq, b, x, Options{Restart: 4, MaxIters: 20, Tol: 1e-12})
	if paranoid.Enabled {
		t.Fatal("paranoid run must panic on the poisoned operator")
	}
	if !res.Breakdown || res.Converged {
		t.Fatalf("expected unconverged breakdown: %+v", res)
	}
	if !errors.Is(res.Err, ErrBreakdown) {
		t.Fatalf("Err does not wrap ErrBreakdown: %v", res.Err)
	}
	if !math.IsNaN(res.Final) {
		t.Fatalf("poisoned solve must report NaN residual, got %g", res.Final)
	}
}

func TestFGMRESBreakdownReportsFlexibleMethod(t *testing.T) {
	n := 5
	b := make([]float64, n)
	b[0] = math.Inf(1)
	x := make([]float64, n)
	res := GMRES(n, ident, nil, Seq, b, x,
		Options{Restart: 3, MaxIters: 10, Tol: 1e-10, Flexible: true})
	var be *BreakdownError
	if !errors.As(res.Err, &be) {
		t.Fatalf("expected a BreakdownError, got %v", res.Err)
	}
	if be.Method != "FGMRES" {
		t.Fatalf("flexible solve must name FGMRES, got %q", be.Method)
	}
	if !strings.Contains(be.Error(), "FGMRES") || !strings.Contains(be.Error(), "iteration 0") {
		t.Fatalf("unhelpful breakdown message: %q", be.Error())
	}
}

func TestGMRESSingularOperatorBreaksDownCleanly(t *testing.T) {
	// The zero operator: the Krylov space degenerates immediately and the
	// solver must stop with a diagnosable breakdown instead of dividing by
	// a vanishing Givens pivot.
	n := 4
	zero := func(y, x []float64) {
		for i := range y {
			y[i] = 0
		}
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	res := GMRES(n, zero, nil, Seq, b, x, Options{Restart: 4, MaxIters: 8, Tol: 1e-10})
	if res.Converged {
		t.Fatalf("singular system must not converge: %+v", res)
	}
	if !res.Breakdown || !errors.Is(res.Err, ErrBreakdown) {
		t.Fatalf("expected breakdown error on singular operator: %+v", res)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("iterate poisoned at %d: %v", i, x)
		}
	}
}

func TestGMRESLuckyBreakdownLeavesErrNil(t *testing.T) {
	// With the identity operator the first Krylov step is exact: the solver
	// hits hn == 0 having already converged — a lucky breakdown.
	n := 6
	b := []float64{1, -2, 3, -4, 5, -6}
	x := make([]float64, n)
	res := GMRES(n, ident, nil, Seq, b, x, Options{Restart: 4, MaxIters: 10, Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("identity solve must converge: %+v", res)
	}
	if res.Err != nil {
		t.Fatalf("lucky breakdown must leave Err nil, got %v", res.Err)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("wrong solution at %d: got %g want %g", i, x[i], b[i])
		}
	}
}

func TestCGBreakdownOnNaNRHS(t *testing.T) {
	n := 4
	b := make([]float64, n)
	b[0] = math.NaN()
	x := make([]float64, n)
	res := CG(n, ident, nil, Seq, b, x, Options{MaxIters: 10, Tol: 1e-10})
	var be *BreakdownError
	if !errors.As(res.Err, &be) {
		t.Fatalf("expected a BreakdownError, got %v", res.Err)
	}
	if be.Method != "CG" || be.Iteration != 0 {
		t.Fatalf("unexpected breakdown metadata: %+v", be)
	}
}

func TestCGIndefiniteSetsErr(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	x := make([]float64, 2)
	res := CG(2, func(y, xx []float64) { a.MulVecTo(y, xx) }, nil, Seq,
		[]float64{0, 1}, x, Options{MaxIters: 10, Tol: 1e-10})
	if !errors.Is(res.Err, ErrBreakdown) {
		t.Fatalf("indefinite CG must report ErrBreakdown, got %v", res.Err)
	}
	var be *BreakdownError
	if !errors.As(res.Err, &be) || be.Quantity == "" {
		t.Fatalf("breakdown must name the offending quantity: %+v", res.Err)
	}
}

func TestCGHealthySolveLeavesErrNil(t *testing.T) {
	// Guard against over-eager breakdown detection on a well-posed SPD
	// system.
	coo := sparse.NewCOO(3, 3, 5)
	coo.Add(0, 0, 4)
	coo.Add(1, 1, 4)
	coo.Add(2, 2, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	a := coo.ToCSR()
	x := make([]float64, 3)
	res := CG(3, func(y, xx []float64) { a.MulVecTo(y, xx) }, nil, Seq,
		[]float64{1, 1, 1}, x, Options{MaxIters: 50, Tol: 1e-12})
	if !res.Converged || res.Err != nil {
		t.Fatalf("healthy SPD solve failed: %+v (err %v)", res, res.Err)
	}
}
