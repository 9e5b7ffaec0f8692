package ilu

import (
	"math/rand"
	"testing"

	"parapre/internal/par"
	"parapre/internal/sparse"
)

// lap2D builds the 5-point Laplacian on an nx×nx grid. Its ILU(0)
// dependency DAG has the classic wavefront level structure (level of row
// (i,j) is i+j), so it exercises genuinely multi-row levels.
func lap2D(nx int) *sparse.CSR {
	n := nx * nx
	coo := sparse.NewCOO(n, n, 5*n)
	id := func(i, j int) int { return i*nx + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			r := id(i, j)
			coo.Add(r, r, 4)
			if i > 0 {
				coo.Add(r, id(i-1, j), -1)
			}
			if i < nx-1 {
				coo.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(r, id(i, j-1), -1)
			}
			if j < nx-1 {
				coo.Add(r, id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSR()
}

// withLevelMode runs fn with the level-scheduling mode pinned, restoring
// the previous mode afterwards.
func withLevelMode(m LevelMode, fn func()) {
	prev := SetLevelMode(m)
	defer SetLevelMode(prev)
	fn()
}

// bitIdentical asserts exact (bit-for-bit) equality of two solve outputs.
func bitIdentical(t *testing.T, tag string, want, got []float64) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: x[%d] differs: serial %x, scheduled %x", tag, i, want[i], got[i])
		}
	}
}

// TestLevelScheduledBitIdentity checks the tentpole determinism contract:
// the level-scheduled sweeps of every factor kind reproduce the serial
// sweeps bit for bit at every worker count.
func TestLevelScheduledBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := lap2D(24)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	type solver interface{ Solve(x, r []float64) }
	factors := map[string]solver{}
	if f, err := ILU0(a); err == nil {
		factors["ILU0"] = f
	} else {
		t.Fatal(err)
	}
	if f, err := ILUT(a, DefaultILUT()); err == nil {
		factors["ILUT"] = f
	} else {
		t.Fatal(err)
	}
	if f, err := ILUTP(a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 0.5}); err == nil {
		factors["ILUTP"] = f
	} else {
		t.Fatal(err)
	}
	if c, err := IC0(a); err == nil {
		factors["IC0"] = c
	} else {
		t.Fatal(err)
	}

	for name, f := range factors {
		ref := make([]float64, n)
		withLevelMode(LevelOff, func() { f.Solve(ref, b) })

		for _, w := range []int{1, 2, 4, 8} {
			prev := par.SetWorkers(w)
			got := make([]float64, n)
			withLevelMode(LevelForce, func() { f.Solve(got, b) })
			par.SetWorkers(prev)
			bitIdentical(t, name, ref, got)
		}
	}
}

// TestLevelScheduledAlias checks that the in-place form (x ≡ b) stays
// bit-identical under the schedule: a level-l row reads only its own b
// entry and x entries finalized by strictly earlier levels.
func TestLevelScheduledAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := lap2D(16)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := make([]float64, a.Rows)
	withLevelMode(LevelOff, func() { f.Solve(ref, b) })

	prev := par.SetWorkers(4)
	defer par.SetWorkers(prev)
	x := append([]float64(nil), b...)
	withLevelMode(LevelForce, func() { f.Solve(x, x) })
	bitIdentical(t, "ILU0 aliased", ref, x)
}

// TestLevelSetsAreValidSchedules checks the structural invariants of the
// computed level sets: every row appears exactly once, and every
// dependency sits in a strictly earlier level of its sweep.
func TestLevelSetsAreValidSchedules(t *testing.T) {
	a := lap2D(12)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	s := f.levels()
	n := f.N()

	check := func(tag string, ls levelSet, deps func(i int) []int32) {
		lvlOf := make([]int, n)
		seen := make([]bool, n)
		if got := len(ls.rows); got != n {
			t.Fatalf("%s: schedule covers %d rows, want %d", tag, got, n)
		}
		for l := 0; l+1 < len(ls.ptr); l++ {
			for _, i := range ls.rows[ls.ptr[l]:ls.ptr[l+1]] {
				if seen[i] {
					t.Fatalf("%s: row %d scheduled twice", tag, i)
				}
				seen[i] = true
				lvlOf[i] = l
			}
		}
		for i := 0; i < n; i++ {
			for _, j := range deps(i) {
				if lvlOf[j] >= lvlOf[i] {
					t.Fatalf("%s: row %d (level %d) depends on row %d (level %d)",
						tag, i, lvlOf[i], j, lvlOf[j])
				}
			}
		}
	}
	check("forward", s.fwd, func(i int) []int32 {
		cols, _ := f.LRow(i)
		return cols
	})
	check("backward", s.bwd, func(i int) []int32 {
		cols, _ := f.URow(i)
		return cols
	})

	// On the 5-point Laplacian the forward wavefront level of row (i,j)
	// is exactly i+j, giving 2·nx−1 levels.
	if got, want := len(s.fwd.ptr)-1, 2*12-1; got != want {
		t.Fatalf("forward levels = %d, want %d", got, want)
	}
}

// TestLevelProfitabilityGate checks that LevelAuto declines narrow/deep
// structures (tridiagonal: one row per level) regardless of workers, so
// the serial kernel keeps running strongly sequential factors.
func TestLevelProfitabilityGate(t *testing.T) {
	f, err := ILU0(tridiag(4096))
	if err != nil {
		t.Fatal(err)
	}
	s := f.levels()
	for _, w := range []int{2, 4, 8} {
		if s.fwd.profitable(w) || s.bwd.profitable(w) {
			t.Fatalf("tridiagonal schedule claimed profitable at %d workers", w)
		}
	}
	// A wide-level structure above the row floor must pass.
	wide := levelSet{ptr: []int{0, 4096, 8192}, rows: make([]int, 8192)}
	if !wide.profitable(8) {
		t.Fatal("two 4096-row levels not profitable at 8 workers")
	}
}

// TestLUSolveFlopsModel pins the LU solve cost model: 2 flops per stored
// entry of the factor, pivots included (2·NNZ). The exact kernel count is
// 2·NNZ − n — each off-diagonal is one multiply plus one subtract, each
// diagonal one divide — so the model overcounts by exactly n. Goldens
// depend on the model; changing it invalidates every virtual-time
// baseline, which is why this test pins the round form rather than the
// exact count.
func TestLUSolveFlopsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPDish(rng, 120, 0.05)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	nnz := f.NNZ()
	n := f.N()
	if got, want := f.SolveFlops(), 2*float64(nnz); got != want {
		t.Fatalf("SolveFlops = %v, want 2·NNZ = %v", got, want)
	}
	// Exact count, walked off the factor structure.
	exact := 0
	for i := 0; i < n; i++ {
		lc, _ := f.LRow(i)
		uc, _ := f.URow(i)
		exact += 2 * len(lc)   // L: mul+sub per entry
		exact += 2*len(uc) + 1 // U: mul+sub per entry + 1 div
	}
	if exact != 2*nnz-n {
		t.Fatalf("exact LU solve flops = %d, want 2·NNZ−n = %d", exact, 2*nnz-n)
	}
}

// TestCholSolveFlopsModel pins the incomplete-Cholesky solve cost model:
// the factor is applied twice (L then Lᵀ), 2 flops per applied entry,
// giving 4·NNZ(L). The exact count is 4·NNZ(L) − 2n (one divide, not a
// multiply-subtract pair, per diagonal per sweep).
func TestCholSolveFlopsModel(t *testing.T) {
	c, err := IC0(lap2D(12))
	if err != nil {
		t.Fatal(err)
	}
	nnzL := c.L.NNZ()
	n := c.N()
	if got, want := c.SolveFlops(), 4*float64(nnzL); got != want {
		t.Fatalf("SolveFlops = %v, want 4·NNZ(L) = %v", got, want)
	}
	exact := 0
	for i := 0; i < n; i++ {
		exact += 2*(c.L.RowPtr[i+1]-c.L.RowPtr[i]-1) + 1   // L sweep
		exact += 2*(c.Lt.RowPtr[i+1]-c.Lt.RowPtr[i]-1) + 1 // Lᵀ sweep
	}
	if exact != 4*nnzL-2*n {
		t.Fatalf("exact Chol solve flops = %d, want 4·NNZ(L)−2n = %d", exact, 4*nnzL-2*n)
	}
}

// BenchmarkTriSolveSerial / BenchmarkTriSolveLevelScheduled pair the
// plain sweep against the level-scheduled one on the same ILU(0) factor
// (run with -benchmem; the scheduled path must not allocate per solve
// after the first).
func benchTriSolve(b *testing.B, mode LevelMode, workers int) {
	a := lap2D(96)
	f, err := ILU0(a)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.Rows)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	prevW := par.SetWorkers(workers)
	prevM := SetLevelMode(mode)
	f.levels() // analysis outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, rhs)
	}
	b.StopTimer()
	SetLevelMode(prevM)
	par.SetWorkers(prevW)
}

func BenchmarkTriSolveSerial(b *testing.B)         { benchTriSolve(b, LevelOff, 1) }
func BenchmarkTriSolveLevelScheduled(b *testing.B) { benchTriSolve(b, LevelForce, 8) }
