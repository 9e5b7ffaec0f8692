package ilu

import (
	"fmt"

	"parapre/internal/par"
	"parapre/internal/sparse"
)

// PatternMatrix is a square matrix held in the pattern of its own ILU(0)
// factor. ILU(0) keeps exactly the matrix's pattern, so the factor's row
// pointers and columns already say where every entry is: row i's strict
// lower part, its diagonal and its strict upper part. What the matrix adds
// is its values, kept as its CSR stored them — row by row, in that order —
// and its own columns and row pointers can be dropped.
type PatternMatrix struct {
	f   *LU
	val []float64
	seg sparse.RowSegments
}

// HoldInPattern keeps a's values in the pattern of f, its ILU(0) factor,
// without copying them: a's value array is the matrix's from then on, and
// a must not be changed. It fails unless every row of a has exactly f's
// columns with the diagonal among them, as an ILUT factor with fill or
// dropping does not.
func HoldInPattern(f *LU, a *sparse.CSR) (*PatternMatrix, error) {
	n := f.N()
	if a.Rows != n || a.Cols != n || a.NNZ() != f.NNZ() {
		return nil, badInputErr("HoldInPattern", "%d×%d matrix with %d entries, factor of order %d with %d",
			a.Rows, a.Cols, a.NNZ(), n, f.NNZ())
	}
	var i int
	if f.isWide() {
		i = outOfPattern(&f.wide, a)
	} else {
		i = outOfPattern(&f.narrow, a)
	}
	if i >= 0 {
		return nil, badInputErr("HoldInPattern", "row %d is not in the factor's pattern", i)
	}
	return &PatternMatrix{f: f, val: a.Val}, nil
}

// outOfPattern returns the first row of a whose columns are not t's
// strict lower row, the diagonal and t's strict upper row, or −1.
func outOfPattern[C column](t *triangles[C], a *sparse.CSR) int {
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		lc, _ := t.l.row(i)
		uc, _ := t.u.row(i)
		d := len(lc)
		if len(cols) != d+1+len(uc) || int(cols[d]) != i || !sameCols(lc, cols[:d]) || !sameCols(uc, cols[d+1:]) {
			return i
		}
	}
	return -1
}

// sameCols reports whether a factor's columns and a CSR's are equal.
func sameCols[C column](a []C, b []int32) bool {
	for k, j := range a {
		if int32(j) != b[k] {
			return false
		}
	}
	return true
}

// Dims returns the matrix dimensions.
func (m *PatternMatrix) Dims() (r, c int) { return m.f.N(), m.f.N() }

// NNZ returns the number of stored entries: the factor's, diagonal included.
func (m *PatternMatrix) NNZ() int { return len(m.val) }

// MulVecTo computes y = A·x without allocating; y and x must not alias.
// Each row is summed from +0 over its entries in ascending column order —
// lower part, diagonal, upper part — with the expression of sparse.CSR's
// row kernel, so y equals the CSR product bit for bit. Like the CSR's, the
// rows are split across the workers once there are sparse.ParMinNNZ
// entries.
func (m *PatternMatrix) MulVecTo(y, x []float64) {
	n := m.f.N()
	if len(x) < n || len(y) < n {
		panic(fmt.Sprintf("ilu: PatternMatrix.MulVecTo dimension mismatch: order %d, len(x)=%d, len(y)=%d", n, len(x), len(y)))
	}
	if w := par.Workers(); w > 1 && len(m.val) >= sparse.ParMinNNZ {
		par.ForSegments(m.seg.Bounds(w, n, len(m.val), m.rowLen), func(lo, hi int) { m.mulRange(y, x, lo, hi) })
		return
	}
	m.mulRange(y, x, 0, n)
}

// rowLen returns the number of entries of row i, diagonal included.
func (m *PatternMatrix) rowLen(i int) int {
	lp, up := m.f.narrow.l.ptr, m.f.narrow.u.ptr
	if m.f.isWide() {
		lp, up = m.f.wide.l.ptr, m.f.wide.u.ptr
	}
	return int(lp[i+1]-lp[i]) + 1 + int(up[i+1]-up[i])
}

// mulRange computes rows [from, to) of y = A·x.
func (m *PatternMatrix) mulRange(y, x []float64, from, to int) {
	if m.f.isWide() {
		mulRows(&m.f.wide, m.val, y, x, from, to)
	} else {
		mulRows(&m.f.narrow, m.val, y, x, from, to)
	}
}

// mulRows computes rows [from, to) of y = A·x for the matrix of values val
// in the pattern of t. Row i's values start after the lower and upper
// entries of the rows above it and their diagonals.
func mulRows[C column](t *triangles[C], val, y, x []float64, from, to int) {
	lp, lc, up, uc := t.l.ptr, t.l.col, t.u.ptr, t.u.col
	k0 := int(lp[from]) + from + int(up[from]) // row i's first value
	for i := from; i < to; i++ {
		var s float64
		cols := lc[lp[i]:lp[i+1]]
		for k, v := range val[k0 : k0+len(cols)] {
			s += v * x[cols[k]]
		}
		k0 += len(cols)
		s += val[k0] * x[i]
		k0++
		cols = uc[up[i]:up[i+1]]
		for k, v := range val[k0 : k0+len(cols)] {
			s += v * x[cols[k]]
		}
		k0 += len(cols)
		y[i] = s
	}
}
