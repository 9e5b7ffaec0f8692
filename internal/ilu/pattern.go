package ilu

import (
	"fmt"
	"slices"

	"parapre/internal/par"
	"parapre/internal/sparse"
)

// PatternMatrix is a square matrix held in the pattern of its own ILU(0)
// factor. ILU(0) keeps exactly the matrix's pattern, so the factor's row
// pointers and 32-bit columns already say where every entry is: row i's
// strict lower part, its diagonal and its strict upper part. What the
// matrix adds is its values, kept as its CSR stored them — row by row, in
// that order — and its own columns and row pointers can be dropped.
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
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		lc, _ := f.l.row(i)
		uc, _ := f.u.row(i)
		d := len(lc)
		if len(cols) != d+1+len(uc) || int(cols[d]) != i || !slices.Equal(lc, cols[:d]) || !slices.Equal(uc, cols[d+1:]) {
			return nil, badInputErr("HoldInPattern", "row %d is not in the factor's pattern", i)
		}
	}
	return &PatternMatrix{f: f, val: a.Val}, nil
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
	lp, up := m.f.l.ptr, m.f.u.ptr
	return int(lp[i+1]-lp[i]) + 1 + int(up[i+1]-up[i])
}

// mulRange computes rows [from, to) of y = A·x. Row i's values start after
// the lower and upper entries of the rows above it and their diagonals.
func (m *PatternMatrix) mulRange(y, x []float64, from, to int) {
	lp, lc, up, uc, val := m.f.l.ptr, m.f.l.col, m.f.u.ptr, m.f.u.col, m.val
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
