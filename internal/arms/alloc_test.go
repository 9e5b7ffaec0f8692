package arms

import (
	"testing"

	"parapre/internal/par"
)

// SolveB sits on the Schur 2 apply path (twice per application) and under
// every ARMS level: it must not allocate.
func TestSolveBZeroAlloc(t *testing.T) {
	a, _ := poissonMatrix(t, 21)
	red, err := Reduce(a, 8, 1e-4)
	if err != nil || red == nil {
		t.Fatalf("Reduce: %v, %v", red, err)
	}
	in := make([]float64, red.NB)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	out := make([]float64, red.NB)
	if got := testing.AllocsPerRun(10, func() { red.SolveB(out, in) }); got != 0 {
		t.Fatalf("SolveB allocates %v objects per call, want 0", got)
	}
	want := make([]float64, red.NB)
	for g, ext := range red.Blocks {
		copy(want[ext[0]:ext[1]], red.BlockLU[g].Solve(in[ext[0]:ext[1]]))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SolveB[%d] = %g, the per-block Solve gives %g", i, out[i], want[i])
		}
	}
}

// The multilevel sweep works out of the caller's per-level scratch: an
// Apply allocates nothing.
func TestSolverApplyZeroAllocSteadyState(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	a, b := poissonMatrix(t, 21)
	s, err := New(a, Options{Levels: 2, MaxGroup: 8, DropTol: 1e-4, ILUT: DefaultOptions().ILUT})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.levels) != 2 {
		t.Fatalf("hierarchy has %d levels, want 2", len(s.levels))
	}
	z, sc := make([]float64, a.Rows), s.NewScratch()
	if got := testing.AllocsPerRun(10, func() { s.Apply(z, b, sc) }); got != 0 {
		t.Fatalf("Apply allocates %v objects per steady-state call, want 0", got)
	}
}
