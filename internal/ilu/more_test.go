package ilu

import (
	"math"
	"math/rand"
	"testing"

	"parapre/internal/sparse"
)

func TestLeadingTrailingTileFactor(t *testing.T) {
	// Leading block entries + trailing block entries + the two coupling
	// blocks must account for every stored factor entry.
	rng := rand.New(rand.NewSource(20))
	a := randSPDish(rng, 30, 0.2)
	f, err := ILUT(a, ILUTOptions{Tau: 1e-3, LFil: 10})
	if err != nil {
		t.Fatal(err)
	}
	const cut = 18
	lead, err := ExtractLeading(f, cut)
	if err != nil {
		t.Fatal(err)
	}
	trail, err := ExtractTrailing(f, cut)
	if err != nil {
		t.Fatal(err)
	}
	coupling := 0
	m, _ := combinedOf(f)
	for i := 0; i < f.N(); i++ {
		cols, _ := m.Row(i)
		for _, j := range cols {
			if (i < cut) != (j < cut) {
				coupling++
			}
		}
	}
	if lead.NNZ()+trail.NNZ()+coupling != f.NNZ() {
		t.Fatalf("blocks do not tile: %d + %d + %d != %d",
			lead.NNZ(), trail.NNZ(), coupling, f.NNZ())
	}
}

func TestLeadingEqualsDirectFactorOfB(t *testing.T) {
	// Elimination of the leading rows never touches later rows, so for a
	// complete factorization ExtractLeading(ILUT(A), k) equals
	// ILUT(A[:k,:k]) exactly. (With dropping they can differ slightly:
	// the row-norm threshold and the per-row fill budget see the coupling
	// block F too.)
	rng := rand.New(rand.NewSource(21))
	a := randSPDish(rng, 25, 0.25)
	opt := ILUTOptions{Tau: 0, LFil: 0}
	full, err := ILUT(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	const k = 14
	lead, err := ExtractLeading(full, k)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	direct, err := ILUT(sparse.Extract(a, idx, idx), opt)
	if err != nil {
		t.Fatal(err)
	}
	if lead.NNZ() != direct.NNZ() {
		t.Fatalf("nnz differ: %d vs %d", lead.NNZ(), direct.NNZ())
	}
	ml, _ := combinedOf(lead)
	md, _ := combinedOf(direct)
	for p := range ml.Val {
		if math.Abs(ml.Val[p]-md.Val[p]) > 1e-12 {
			t.Fatalf("factor value %d differs: %v vs %v", p, ml.Val[p], md.Val[p])
		}
	}
}

// lap2d builds the 5-point Laplacian on an n×n grid.
func lap2d(n int) *sparse.CSR {
	coo := sparse.NewCOO(n*n, n*n, 5*n*n)
	id := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			coo.Add(id(i, j), id(i, j), 4)
			if i > 0 {
				coo.Add(id(i, j), id(i-1, j), -1)
			}
			if i < n-1 {
				coo.Add(id(i, j), id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(id(i, j), id(i, j-1), -1)
			}
			if j < n-1 {
				coo.Add(id(i, j), id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSR()
}

func TestILUTQualityImprovesWithFill(t *testing.T) {
	// ‖b − A·M⁻¹b‖ must shrink monotonically as lfil grows on a Laplacian.
	a := lap2d(12)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	var prev float64 = math.Inf(1)
	for _, lfil := range []int{1, 3, 8, 20} {
		f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: lfil})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		f.Solve(x, b)
		r := append([]float64(nil), b...)
		a.MulVecSub(r, x)
		got := sparse.Norm2(r)
		if got > prev*(1+1e-9) {
			t.Fatalf("lfil=%d residual %v worse than previous %v", lfil, got, prev)
		}
		prev = got
	}
}

func TestNoPivotFixesOnSPD(t *testing.T) {
	a := lap2d(10)
	f0, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if f0.PivotFixes != 0 {
		t.Fatalf("ILU0 fixed %d pivots on an M-matrix", f0.PivotFixes)
	}
	ft, err := ILUT(a, DefaultILUT())
	if err != nil {
		t.Fatal(err)
	}
	if ft.PivotFixes != 0 {
		t.Fatalf("ILUT fixed %d pivots on an M-matrix", ft.PivotFixes)
	}
}

func TestILU0OnLaplacianPositivePivots(t *testing.T) {
	// The ILU(0) of an M-matrix keeps strictly positive pivots.
	a := lap2d(9)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		if p := f.Pivot(i); p <= 0 {
			t.Fatalf("pivot %d = %v", i, p)
		}
	}
}

func TestSolveAliasedInOut(t *testing.T) {
	// Solve documents that x and b may alias.
	a := lap2d(6)
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	want := make([]float64, n)
	f.Solve(want, b)
	x := append([]float64(nil), b...)
	f.Solve(x, x)
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("aliased solve differs at %d", i)
		}
	}
}

func TestTrailingSolveApproximatesSchurSolve(t *testing.T) {
	// With a complete factorization, solving with the trailing factors
	// must equal solving with the dense exact Schur complement.
	rng := rand.New(rand.NewSource(22))
	n, nB := 20, 12
	a := randSPDish(rng, n, 0.3)
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ExtractTrailing(f, nB)
	if err != nil {
		t.Fatal(err)
	}
	sDense := fs.Product()
	lu, err := sDense.Factor()
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n-nB)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	want := lu.Solve(rhs)
	got := make([]float64, n-nB)
	fs.Solve(got, rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("trailing solve differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
