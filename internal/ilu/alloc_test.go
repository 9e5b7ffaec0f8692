package ilu

import "testing"

// TestLUSolveZeroAllocSteadyState pins the dynamic twin of the static
// //lint:allocfree proof on the ILU triangular solve.
//
// alloctest: (*ilu.LU).Solve
func TestLUSolveZeroAllocSteadyState(t *testing.T) {
	a := tridiag(300)
	f, err := ILU0(a)
	if err != nil {
		t.Fatalf("ILU0: %v", err)
	}
	n := a.Rows
	x := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	if got := testing.AllocsPerRun(10, func() { f.Solve(x, b) }); got != 0 {
		t.Fatalf("LU.Solve allocates %v objects per call, want 0", got)
	}
}

// TestCholSolveZeroAllocSteadyState pins the dynamic twin of the static
// //lint:allocfree proof on the incomplete-Cholesky solve.
//
// alloctest: (*ilu.Chol).Solve
func TestCholSolveZeroAllocSteadyState(t *testing.T) {
	a := tridiag(300)
	c, err := IC0(a)
	if err != nil {
		t.Fatalf("IC0: %v", err)
	}
	n := a.Rows
	z := make([]float64, n)
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%5) - 2
	}
	if got := testing.AllocsPerRun(10, func() { c.Solve(z, r) }); got != 0 {
		t.Fatalf("Chol.Solve allocates %v objects per call, want 0", got)
	}
}
