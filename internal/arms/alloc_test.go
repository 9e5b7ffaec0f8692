package arms

import "testing"

// SolveB sits on the Schur 2 apply path (twice per application): it must
// not allocate.
func TestSolveBZeroAlloc(t *testing.T) {
	a, _ := poissonMatrix(t, 21)
	red, err := reduce(a, 8, 1e-4)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	in := make([]float64, red.NB)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	out := make([]float64, red.NB)
	if got := testing.AllocsPerRun(10, func() { red.SolveB(out, in) }); got != 0 {
		t.Fatalf("SolveB allocates %v objects per call, want 0", got)
	}
	bb, _, _, _ := splitOracle(a, red.Perm, red.NB)
	want := make([]float64, red.NB)
	solveBDense(red.B, denseGroupLUs(t, bb, red.B), want, in)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SolveB[%d] = %g, the per-group dense Solve gives %g", i, out[i], want[i])
		}
	}
}
