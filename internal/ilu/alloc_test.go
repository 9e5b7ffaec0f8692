package ilu

import "testing"

// TestLUSolveZeroAllocSteadyState: the triangular solve allocates nothing,
// with the factor's columns held at 16 bits (order up to 65,536) and at
// 32 bits above.
func TestLUSolveZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		wide bool
	}{
		{"narrow", 300, false},
		{"wide", narrowMax + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ILU0(tridiag(tc.n))
			if err != nil {
				t.Fatalf("ILU0: %v", err)
			}
			if f.isWide() != tc.wide {
				t.Fatalf("order %d: wide %v, want %v", tc.n, f.isWide(), tc.wide)
			}
			x := make([]float64, tc.n)
			b := make([]float64, tc.n)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			if got := testing.AllocsPerRun(10, func() { f.Solve(x, b) }); got != 0 {
				t.Fatalf("LU.Solve allocates %v objects per call, want 0", got)
			}
		})
	}
}

// TestCholSolveZeroAllocSteadyState: the incomplete-Cholesky solve
// allocates nothing.
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
