package ilu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapre/internal/sparse"
)

// tridiag builds the 1D Laplacian [−1 2 −1], whose LU has no fill, so
// ILU(0) is exact on it.
func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

// lap2D builds the 5-point Laplacian on an nx×nx grid.
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

// randSPDish builds a random diagonally dominant sparse matrix.
func randSPDish(rng *rand.Rand, n int, density float64) *sparse.CSR {
	coo := sparse.NewCOO(n, n, int(float64(n*n)*density)+n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func solveErr(f *LU, a *sparse.CSR, rng *rand.Rand) float64 {
	n := a.Rows
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x := make([]float64, n)
	f.Solve(x, b)
	var maxErr float64
	for i := range x {
		if e := math.Abs(x[i] - xTrue[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestILU0ExactOnTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tridiag(50)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.PivotFixes != 0 {
		t.Fatalf("unexpected pivot fixes: %d", f.PivotFixes)
	}
	if got := solveErr(f, a, rng); got > 1e-10 {
		t.Fatalf("ILU0 not exact on tridiagonal: err %v", got)
	}
}

func TestILU0PatternPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randSPDish(rng, 40, 0.15)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != a.NNZ() {
		t.Fatalf("ILU0 changed pattern size: %d vs %d", f.NNZ(), a.NNZ())
	}
	m, _ := combinedOf(f)
	for i := 0; i < a.Rows; i++ {
		ac, _ := a.Row(i)
		fc, _ := m.Row(i)
		for k := range ac {
			if ac[k] != fc[k] {
				t.Fatalf("pattern differs in row %d", i)
			}
		}
	}
}

func TestILU0MissingDiagonalRejected(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := ILU0(coo.ToCSR()); err == nil {
		t.Fatal("matrix without diagonal accepted")
	}
}

func TestILU0NonSquareRejected(t *testing.T) {
	if _, err := ILU0(sparse.NewCSR(2, 3, 0)); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := ILUT(sparse.NewCSR(2, 3, 0), DefaultILUT()); err == nil {
		t.Fatal("non-square accepted by ILUT")
	}
}

func TestILUTCompleteIsExact(t *testing.T) {
	// Tau=0, unlimited fill: complete LU (no pivoting), exact for
	// diagonally dominant matrices.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		a := randSPDish(rng, n, 0.2)
		f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
		if err != nil {
			t.Fatal(err)
		}
		if got := solveErr(f, a, rng); got > 1e-8 {
			t.Fatalf("trial %d (n=%d): complete ILUT err %v", trial, n, got)
		}
	}
}

func TestILUTCompleteProductReproducesA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPDish(rng, 25, 0.25)
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	lu := f.Product()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Abs(lu.At(i, j)-a.At(i, j)) > 1e-9 {
				t.Fatalf("L·U differs from A at (%d,%d): %v vs %v", i, j, lu.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestILUTDropsWithLargeTau(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPDish(rng, 60, 0.2)
	loose, err := ILUT(a, ILUTOptions{Tau: 0.2, LFil: 5})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NNZ() >= tight.NNZ() {
		t.Fatalf("dropping did not reduce fill: %d vs %d", loose.NNZ(), tight.NNZ())
	}
	// Even the loose factorization must reduce the residual of a solve
	// versus doing nothing: check ‖b − A·M⁻¹b‖ < ‖b − A·b‖ style sanity.
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	loose.Solve(x, b)
	r := append([]float64(nil), b...)
	a.MulVecSub(r, x)
	if sparse.Norm2(r) > 0.9*sparse.Norm2(b) {
		t.Fatalf("loose ILUT barely reduces residual: %v vs %v", sparse.Norm2(r), sparse.Norm2(b))
	}
}

func TestILUTLFilRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randSPDish(rng, 50, 0.4)
	lfil := 3
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: lfil})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.N(); i++ {
		lc, _ := f.LRow(i)
		uc, _ := f.URow(i)
		lCount, uCount := len(lc), len(uc)
		if lCount > lfil || uCount > lfil {
			t.Fatalf("row %d: L=%d U=%d exceed lfil=%d", i, lCount, uCount, lfil)
		}
	}
}

func TestILUTMatchesILU0OnNoFillMatrix(t *testing.T) {
	// On a tridiagonal matrix ILU(0), complete ILUT and dense LU coincide.
	a := tridiag(30)
	f0, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f0.NNZ() != ft.NNZ() {
		t.Fatalf("nnz differ: %d vs %d", f0.NNZ(), ft.NNZ())
	}
	m0, _ := combinedOf(f0)
	mt, _ := combinedOf(ft)
	for k := range m0.Val {
		if math.Abs(m0.Val[k]-mt.Val[k]) > 1e-12 {
			t.Fatalf("factor value %d differs: %v vs %v", k, m0.Val[k], mt.Val[k])
		}
	}
}

func TestILUTPropertyCompleteEqualsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		a := randSPDish(rng, n, 0.3)
		fa, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
		if err != nil {
			return false
		}
		df, err := a.Dense().Factor()
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1 := make([]float64, n)
		fa.Solve(x1, b)
		x2 := df.Solve(b)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPivotFixKeepsSolveFinite(t *testing.T) {
	// A numerically singular row that still carries information (zero
	// diagonal, nonzero off-diagonals) must not produce Inf/NaN after the
	// pivot fix.
	coo := sparse.NewCOO(3, 3, 6)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 0) // explicit zero pivot
	coo.Add(1, 2, 1) // but the row is not information-free
	coo.Add(2, 2, 2)
	coo.Add(0, 2, 1)
	coo.Add(2, 0, 1)
	a := coo.ToCSR()
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.PivotFixes == 0 {
		t.Fatal("zero pivot not detected")
	}
	x := make([]float64, 3)
	f.Solve(x, []float64{1, 1, 1})
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solve result %v", x)
		}
	}
}

func TestExtractTrailingExactSchur(t *testing.T) {
	// For a complete factorization of A ordered [B F; E C], the trailing
	// factors must multiply back to the exact Schur complement
	// S = C − E·B⁻¹·F.
	rng := rand.New(rand.NewSource(7))
	n, nB := 18, 12
	a := randSPDish(rng, n, 0.3)
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ExtractTrailing(f, nB)
	if err != nil {
		t.Fatal(err)
	}
	got := fs.Product()

	// Dense oracle for S.
	idxB := make([]int, nB)
	idxC := make([]int, n-nB)
	for i := 0; i < nB; i++ {
		idxB[i] = i
	}
	for i := nB; i < n; i++ {
		idxC[i-nB] = i
	}
	B := sparse.Extract(a, idxB, idxB).Dense()
	F := sparse.Extract(a, idxB, idxC).Dense()
	E := sparse.Extract(a, idxC, idxB).Dense()
	C := sparse.Extract(a, idxC, idxC).Dense()
	bf, err := B.Factor()
	if err != nil {
		t.Fatal(err)
	}
	ns := n - nB
	for j := 0; j < ns; j++ {
		// Column j of B⁻¹F.
		col := make([]float64, nB)
		for i := 0; i < nB; i++ {
			col[i] = F.At(i, j)
		}
		binvf := bf.Solve(col)
		for i := 0; i < ns; i++ {
			var eb float64
			for k := 0; k < nB; k++ {
				eb += E.At(i, k) * binvf[k]
			}
			want := C.At(i, j) - eb
			if math.Abs(got.At(i, j)-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("S(%d,%d) = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestExtractTrailingBounds(t *testing.T) {
	a := tridiag(5)
	f, _ := ILU0(a)
	if _, err := ExtractTrailing(f, -1); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := ExtractTrailing(f, 6); err == nil {
		t.Fatal("start > n accepted")
	}
	full, err := ExtractTrailing(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.NNZ() != f.NNZ() {
		t.Fatal("start=0 must return the whole factorization")
	}
	empty, err := ExtractTrailing(f, 5)
	if err != nil || empty.N() != 0 {
		t.Fatalf("start=n must return empty factorization: %v %v", empty, err)
	}
}

func TestSolveFlops(t *testing.T) {
	a := tridiag(10)
	f, _ := ILU0(a)
	if got := f.SolveFlops(); got != 2*float64(a.NNZ()) {
		t.Fatalf("SolveFlops = %v", got)
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
		exact += 2*(c.L.RowNNZ(i)-1) + 1  // L sweep
		exact += 2*(c.Lt.RowNNZ(i)-1) + 1 // Lᵀ sweep
	}
	if exact != 4*nnzL-2*n {
		t.Fatalf("exact Chol solve flops = %d, want 4·NNZ(L)−2n = %d", exact, 4*nnzL-2*n)
	}
}

// farArrow is the matrix whose rows reach farthest back: the diagonal, a
// dense first column and a dense last row. Every row's L part starts at
// column 0, so whatever orders the L columns has to cross the whole gap
// between column 0 and the diagonal; the last row puts n − 1 columns in
// it at once. No elimination creates fill.
func farArrow(n int) *sparse.CSR {
	a := sparse.NewCSR(n, n, 3*n)
	for i := 0; i < n; i++ {
		if i == n-1 {
			for j := 0; j < n-1; j++ {
				a.ColIdx, a.Val = append(a.ColIdx, int32(j)), append(a.Val, -0.25)
			}
		} else if i > 0 {
			a.ColIdx, a.Val = append(a.ColIdx, 0), append(a.Val, -0.5)
		}
		a.ColIdx, a.Val = append(a.ColIdx, int32(i)), append(a.Val, 4+float64(i%3))
		a.EndRow(i)
	}
	return a
}

// benchFactorMatrices are the inputs of the factorization benchmarks: a
// random block with fill everywhere, and the arrow whose rows are as far
// apart as rows get.
func benchFactorMatrices() []namedMatrix {
	return []namedMatrix{
		{"random", randSPDish(rand.New(rand.NewSource(8)), 500, 0.02)},
		{"arrow", farArrow(200000)},
	}
}

type namedMatrix struct {
	name string
	a    *sparse.CSR
}

func BenchmarkILUTFactor(b *testing.B) {
	for _, m := range benchFactorMatrices() {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ILUT(m.a, DefaultILUT()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkILUTPFactor(b *testing.B) {
	for _, m := range benchFactorMatrices() {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ILUTP(m.a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkILUSolve(b *testing.B) {
	f, err := ILUT(randSPDish(rand.New(rand.NewSource(9)), 1000, 0.01), DefaultILUT())
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, f)
}

// BenchmarkTriSolveSerial times the pair of sweeps on an ILU(0) factor of
// the 96×96 Laplacian (run with -benchmem: a solve must not allocate).
func BenchmarkTriSolveSerial(b *testing.B) {
	f, err := ILU0(lap2D(96))
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, f)
}

// benchSolve times f.Solve on a right-hand side of ones.
func benchSolve(b *testing.B, f *LU) {
	x := make([]float64, f.N())
	rhs := make([]float64, f.N())
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, rhs)
	}
}
