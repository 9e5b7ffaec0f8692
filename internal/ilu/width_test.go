package ilu

import (
	"math"
	"testing"
	"unsafe"

	"parapre/internal/sparse"
)

// triView is one triangle of a factor as the tests read it, whatever its
// width: the row pointers, the columns widened to int32, the values, and
// the bytes and the spare capacity of the column slice the factor holds.
type triView struct {
	ptr, col           []int32
	val                []float64
	colBytes, colSpare int
}

// viewsOf returns f's strict lower and upper triangle.
func viewsOf(f *LU) [2]triView {
	if f.isWide() {
		return [2]triView{viewOf(&f.wide.l), viewOf(&f.wide.u)}
	}
	return [2]triView{viewOf(&f.narrow.l), viewOf(&f.narrow.u)}
}

func viewOf[C column](t *tri[C]) triView {
	col := make([]int32, len(t.col))
	for k, j := range t.col {
		col[k] = int32(j)
	}
	var c C
	return triView{ptr: t.ptr, col: col, val: t.val,
		colBytes: cap(t.col) * int(unsafe.Sizeof(c)), colSpare: cap(t.col) - len(t.col)}
}

// heldBy returns the bytes the slices of f hold.
func heldBy(f *LU) int {
	held := 8 * cap(f.piv)
	for _, v := range viewsOf(f) {
		held += 4*cap(v.ptr) + v.colBytes + 8*cap(v.val)
	}
	return held
}

// spoil overwrites every column and value f stores.
func spoil(f *LU) {
	if f.isWide() {
		spoilTriangles(&f.wide)
	} else {
		spoilTriangles(&f.narrow)
	}
}

func spoilTriangles[C column](t *triangles[C]) {
	for _, r := range []*tri[C]{&t.l, &t.u} {
		for i := range r.col {
			r.col[i], r.val[i] = ^C(0), math.NaN()
		}
	}
}

// widen returns f with the same entries held at 32 bits, the width of an
// order above narrowMax; a wide f is returned as it is.
func widen(f *LU) *LU {
	if f.isWide() {
		return f
	}
	return &LU{
		wide: triangles[int32]{widenTri(&f.narrow.l), widenTri(&f.narrow.u)},
		piv:  f.piv, PivotFixes: f.PivotFixes,
	}
}

func widenTri(t *tri[uint16]) tri[int32] {
	col := make([]int32, len(t.col))
	for k, j := range t.col {
		col[k] = int32(j)
	}
	return tri[int32]{ptr: t.ptr, col: col, val: t.val}
}

// banded returns an unsymmetric n×n matrix of half-bandwidth w in which
// every fifth diagonal entry is weak.
func banded(n, w int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, (2*w+1)*n)
	for i := 0; i < n; i++ {
		for j := max(0, i-w); j <= min(n-1, i+w); j++ {
			switch {
			case j == i && i%5 == 0:
				coo.Add(i, j, 0.01)
			case j == i:
				coo.Add(i, j, float64(2*w+1))
			default:
				coo.Add(i, j, -1-float64((3*i+j)%7)/8)
			}
		}
	}
	return coo.ToCSR()
}

// sameBits fails unless got and want hold the same bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x", what, i, got[i], want[i])
		}
	}
}

// TestColumnWidthBoundary builds every kind of factor on both sides of
// the 16-bit boundary, from banded matrices of order narrowMax and
// narrowMax+1. Each factor holds the width its own order picks and solves
// to the bits of the combined-layout sweeps; a narrow one also to the bits
// of its widened copy. A matrix held in the pattern of its ILU(0) factor
// multiplies to the CSR product's bits, held in either width.
func TestColumnWidthBoundary(t *testing.T) {
	mats := map[int]*sparse.CSR{narrowMax: banded(narrowMax, 2), narrowMax + 1: banded(narrowMax+1, 2)}
	ilut := func(a *sparse.CSR) (*LU, error) { return ILUT(a, DefaultILUT()) }
	// sub factors a by ILUT and extracts the trailing factor from lo when
	// lo > 0, else the leading one up to hi, counted back from the order.
	sub := func(lo, hi int) func(*sparse.CSR) (*LU, error) {
		return func(a *sparse.CSR) (*LU, error) {
			f, err := ilut(a)
			if err != nil {
				return nil, err
			}
			if lo > 0 {
				return ExtractTrailing(f, lo)
			}
			return ExtractLeading(f, a.Rows+hi)
		}
	}
	table := []struct {
		name    string
		order   int // of the matrix factored
		factor  func(*sparse.CSR) (*LU, error)
		wantN   int
		pattern bool // the factor holds the matrix's pattern
	}{
		{"ILU0/narrow", narrowMax, ILU0, narrowMax, true},
		{"ILU0/wide", narrowMax + 1, ILU0, narrowMax + 1, true},
		{"ILUT/narrow", narrowMax, ilut, narrowMax, false},
		{"ILUT/wide", narrowMax + 1, ilut, narrowMax + 1, false},
		{"ExtractLeading/narrow", narrowMax, sub(0, -1), narrowMax - 1, false},
		{"ExtractLeading/wide", narrowMax + 1, sub(0, 0), narrowMax + 1, false},
		{"ExtractLeading/wide to narrow", narrowMax + 1, sub(0, -1), narrowMax, false},
		{"ExtractTrailing/narrow", narrowMax, sub(1, 0), narrowMax - 1, false},
		{"ExtractTrailing/wide to narrow", narrowMax + 1, sub(1, 0), narrowMax, false},
	}
	for _, tt := range table {
		t.Run(tt.name, func(t *testing.T) {
			a := mats[tt.order]
			f, err := tt.factor(a)
			if err != nil {
				t.Fatal(err)
			}
			n := f.N()
			if n != tt.wantN {
				t.Fatalf("order %d, want %d", n, tt.wantN)
			}
			if f.isWide() != (n > narrowMax) {
				t.Fatalf("order %d holds wide columns: %v", n, f.isWide())
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i%11) - 4.5
			}
			checkSplitBits(t, tt.name, f, b)
			x, xw := make([]float64, n), make([]float64, n)
			f.Solve(x, b)
			widen(f).Solve(xw, b)
			sameBits(t, "widened Solve", xw, x)
			if !tt.pattern {
				return
			}
			want := make([]float64, n)
			a.MulVecTo(want, b)
			for _, g := range []*LU{f, widen(f)} {
				m, err := HoldInPattern(g, a)
				if err != nil {
					t.Fatal(err)
				}
				y := make([]float64, n)
				m.MulVecTo(y, b)
				sameBits(t, "pattern product", y, want)
			}
		})
	}
}

// TestWideFactorSolvesExactly factors the tridiagonal [−1 4 −1] of order
// narrowMax+1, where ILU(0) is the complete LU: the wide factor's solve
// returns the chosen solution up to rounding.
func TestWideFactorSolvesExactly(t *testing.T) {
	n := narrowMax + 1
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if !f.isWide() || f.PivotFixes != 0 {
		t.Fatalf("factor wide %v with %d pivot fixes, want wide with none", f.isWide(), f.PivotFixes)
	}
	want, b, x := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range want {
		want[i] = float64(1 + i%3)
	}
	a.MulVecTo(b, want)
	f.Solve(x, b)
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-13 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}
