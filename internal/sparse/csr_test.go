package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randCSR builds a random sparse matrix with about density·r·c entries,
// always including the diagonal when square (so it is usable by
// factorization tests too).
func randCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	coo := NewCOO(r, c, int(float64(r*c)*density)+r)
	for i := 0; i < r; i++ {
		if i < c {
			coo.Add(i, i, 4+rng.Float64())
		}
		for j := 0; j < c; j++ {
			if j != i && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(3, 3, 8)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2)
	coo.Add(1, 2, 5)
	coo.Add(1, 0, -1)
	coo.Add(1, 2, -5)
	coo.Add(2, 1, 7)
	a := coo.ToCSR()
	if err := a.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := a.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0 (cancelled duplicates are kept as explicit zero)", got)
	}
	if got := a.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := a.At(2, 1); got != 7 {
		t.Errorf("At(2,1) = %v, want 7", got)
	}
	if got := a.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %v, want 0 for absent entry", got)
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewCOO(2, 2, 1).Add(2, 0, 1)
}

// Columns are stored in 32 bits: a matrix wider than that is refused where
// it is made, naming the limit, instead of wrapping a column silently.
func TestColumnWidthGuard(t *testing.T) {
	const wide = math.MaxInt32 + 1
	if a := NewCSR(1, math.MaxInt32, 0); a.Cols != math.MaxInt32 {
		t.Fatalf("NewCSR at the limit: %d columns", a.Cols)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "2147483647") {
				t.Fatalf("NewCSR with %d columns: panic %q, want one naming the limit", wide, msg)
			}
		}()
		NewCSR(1, wide, 0)
	}()
	a := &CSR{Rows: 2, Cols: 2 * wide, RowPtr: []int32{0, 0, 0}}
	if _, err := ToBSR(a, 2, 2); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("ToBSR with %d columns: error %v, want one naming the limit", a.Cols, err)
	}
}

// Row pointers are stored in 32 bits too: a matrix of more entries is
// refused naming the limit — by NewCSR before it allocates, and by rowEnd,
// which closes every row COO.ToCSR (either path) and EndRow build — instead
// of wrapping a row pointer silently.
func TestEntryCountGuard(t *testing.T) {
	const many = math.MaxInt32 + 1
	wantPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "2147483647") || !strings.Contains(msg, what) {
				t.Errorf("%s with %d entries: panic %q, want one naming it and the limit", what, many, msg)
			}
		}()
		f()
	}
	wantPanic("NewCSR", func() { NewCSR(1, 1, many) })
	wantPanic("COO.ToCSR", func() { rowEnd("COO.ToCSR", many) })
	if got := rowEnd("COO.ToCSR", math.MaxInt32); got != math.MaxInt32 {
		t.Errorf("rowEnd at the limit = %d", got)
	}
}

func TestSearchCol(t *testing.T) {
	cols := []int32{1, 4, 9}
	for c, want := range map[int]int{-1: 0, 0: 0, 1: 0, 2: 1, 4: 1, 5: 2, 9: 2, 10: 3, math.MaxInt32 + 1: 3} {
		if got := SearchCol(cols, c); got != want {
			t.Errorf("SearchCol(%v, %d) = %d, want %d", cols, c, got, want)
		}
	}
	if got := SearchCol(nil, 3); got != 0 {
		t.Errorf("SearchCol(nil, 3) = %d, want 0", got)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randCSR(rng, r, c, 0.3)
		x := randVec(rng, c)
		want := a.Dense().MulVec(x)
		got := a.MulVec(x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMulVecToPanicsOnShortInput(t *testing.T) {
	a := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short x")
		}
	}()
	a.MulVecTo(make([]float64, 3), make([]float64, 2))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := randCSR(rng, 1+rng.Intn(25), 1+rng.Intn(25), 0.25)
		tt := a.Transpose().Transpose()
		if !a.Equal(tt) {
			t.Fatalf("trial %d: (Aᵀ)ᵀ != A", trial)
		}
	}
}

func TestTransposeMatvecIdentity(t *testing.T) {
	// Property: yᵀ(A x) == (Aᵀ y)ᵀ x.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := randCSR(rng, m, n, 0.3)
		x, y := randVec(r, n), randVec(r, m)
		lhs := Dot(y, a.MulVec(x))
		rhs := Dot(a.Transpose().MulVec(y), x)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randVec(rng, 17)
	y := Identity(17).MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x differs at %d", i)
		}
	}
}

func TestDiagonal(t *testing.T) {
	coo := NewCOO(3, 3, 4)
	coo.Add(0, 0, 2)
	coo.Add(1, 2, 9)
	coo.Add(2, 2, -4)
	d := coo.ToCSR().Diagonal()
	want := []float64{2, 0, -4}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diagonal[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestAtReadsStoredEntries(t *testing.T) {
	a := randCSR(rand.New(rand.NewSource(5)), 10, 10, 0.3)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		stored := map[int]float64{}
		for k, j := range cols {
			stored[int(j)] = vals[k]
		}
		for j := 0; j < a.Cols; j++ {
			if got := a.At(i, j); got != stored[j] {
				t.Fatalf("At(%d,%d) = %v, stored %v", i, j, got, stored[j])
			}
		}
	}
}

func TestMulVecAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randCSR(rng, 12, 9, 0.4)
	x := randVec(rng, 9)
	y0 := randVec(rng, 12)

	y := append([]float64(nil), y0...)
	a.MulVecAdd(y, 2.5, x)
	ax := a.MulVec(x)
	for i := range y {
		want := y0[i] + 2.5*ax[i]
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("MulVecAdd[%d] = %v, want %v", i, y[i], want)
		}
	}

	y = append([]float64(nil), y0...)
	a.MulVecSub(y, x)
	for i := range y {
		want := y0[i] - ax[i]
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("MulVecSub[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestCheckValidDetectsCorruption(t *testing.T) {
	a := Identity(4)
	a.ColIdx[2] = 99
	if err := a.CheckValid(); err == nil {
		t.Fatal("CheckValid accepted out-of-range column")
	}
	b := Identity(4)
	b.RowPtr[2] = 0
	if err := b.CheckValid(); err == nil {
		t.Fatal("CheckValid accepted non-monotone RowPtr")
	}
	c := Identity(4)
	c.ColIdx[1] = 0 // duplicate of row 0's column? row 1 col 0 < nothing; makes row 1 = {0}, fine; instead break sortedness in a 2-entry row
	coo := NewCOO(1, 3, 2)
	coo.Add(0, 2, 1)
	coo.Add(0, 1, 1)
	d := coo.ToCSR()
	d.ColIdx[0], d.ColIdx[1] = d.ColIdx[1], d.ColIdx[0]
	if err := d.CheckValid(); err == nil {
		t.Fatal("CheckValid accepted unsorted row")
	}
	if err := c.CheckValid(); err != nil {
		t.Fatalf("unexpected error on valid matrix: %v", err)
	}
}

func TestFromTriplets(t *testing.T) {
	a := FromTriplets(2, 2, []int{0, 1, 0}, []int{1, 0, 1}, []float64{3, 4, 1})
	if a.At(0, 1) != 4 || a.At(1, 0) != 4 {
		t.Fatalf("FromTriplets produced %v and %v, want 4 and 4", a.At(0, 1), a.At(1, 0))
	}
}

func TestCSRString(t *testing.T) {
	if s := Identity(2).String(); s != "CSR{2×2, nnz=2}" {
		t.Fatalf("String() = %q", s)
	}
}

func TestAccessorsAndSortRows(t *testing.T) {
	a := Identity(3)
	if r, c := a.Dims(); r != 3 || c != 3 {
		t.Fatal("Dims")
	}
	if a.RowNNZ(1) != 1 {
		t.Fatal("RowNNZ")
	}
	b := a.Clone()
	b.Val[0] = 9
	if a.Val[0] == 9 {
		t.Fatal("Clone shares storage")
	}
	// Build unsorted rows by hand and restore the invariant.
	m := &CSR{Rows: 1, Cols: 3, RowPtr: []int32{0, 3}, ColIdx: []int32{2, 0, 1}, Val: []float64{3, 1, 2}}
	SortRow(m.ColIdx, m.Val)
	if err := m.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if m.Val[0] != 1 || m.Val[2] != 3 {
		t.Fatalf("SortRow misaligned values: %v", m.Val)
	}
}

func TestCOOLen(t *testing.T) {
	c := NewCOO(2, 2, 4)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	if !a.Equal(b) {
		t.Fatal("identical matrices unequal")
	}
	b.Val[1] = 5
	if a.Equal(b) {
		t.Fatal("value change undetected")
	}
	c := Identity(4)
	if a.Equal(c) {
		t.Fatal("dimension change undetected")
	}
	d := a.Clone()
	d.ColIdx[0] = 1
	d.ColIdx[1] = 0 // same nnz, different pattern (invalid but Equal should see it)
	if a.Equal(d) {
		t.Fatal("pattern change undetected")
	}
}
