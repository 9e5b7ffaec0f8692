// Package ilu implements the incomplete LU factorizations used by every
// preconditioner in the paper: zero fill-in ILU(0), the dual-threshold
// ILUT(τ, lfil) of Saad, the forward/backward substitution that applies
// them, and the extraction of approximate Schur-complement factors from
// the trailing block of an internal-first-ordered factorization (§2: if
// A_i = L_i·U_i with the interface unknowns ordered last, then L_S·U_S
// approximates the local Schur complement S_i).
//
// A factor is stored the way the substitution reads it: the strict lower
// triangle, the strict upper triangle and the pivots are three separate
// pieces (see LU), so the forward sweep streams L and the backward sweep
// streams U without stepping over the other triangle, and the columns are
// 16-bit wherever the order allows (see LU). The factorizations write that
// layout directly. None pivots: ILUT repairs a small or absent pivot
// (fixPivot), and every factorization refuses a row with no nonzero entry.
package ilu

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/sparse"
)

// column is the type a factor's triangles store their columns in: uint16
// when the factor's order is at most narrowMax, int32 above. The width is
// a property of the order alone, picked where a factor is built.
type column interface{ uint16 | int32 }

// narrowMax is the largest order whose columns, 0 … narrowMax−1, all fit
// 16 bits.
const narrowMax = 1 << 16

// tri is one strict triangle of a factorization in CSR form with 32-bit
// row pointers: row i owns col[ptr[i]:ptr[i+1]] and the matching val
// entries, columns strictly ascending.
type tri[C column] struct {
	ptr []int32
	col []C
	val []float64
}

// triangles are the strict lower and upper triangle of one factor.
type triangles[C column] struct{ l, u tri[C] }

// nnz returns the entries of both triangles.
func (t *triangles[C]) nnz() int { return len(t.l.val) + len(t.u.val) }

// newTri returns an n-row triangle with room for nnz entries; rows are
// appended in order with endRow.
func newTri[C column](n, nnz int) tri[C] {
	return tri[C]{ptr: make([]int32, n+1), col: make([]C, 0, nnz), val: make([]float64, 0, nnz)}
}

func (t *tri[C]) push(j int, v float64) {
	t.col = append(t.col, C(j))
	t.val = append(t.val, v)
}

func (t *tri[C]) endRow(i int) { t.ptr[i+1] = int32(len(t.col)) }

func (t *tri[C]) row(i int) ([]C, []float64) {
	lo, hi := t.ptr[i], t.ptr[i+1]
	return t.col[lo:hi], t.val[lo:hi]
}

// rowTo appends row i's columns to dst and returns them with the row's
// values, which alias the triangle.
func (t *tri[C]) rowTo(dst []int32, i int) ([]int32, []float64) {
	cols, vals := t.row(i)
	for _, j := range cols {
		dst = append(dst, int32(j))
	}
	return dst, vals
}

// searchCol is sparse.SearchCol over a triangle's columns: the index of
// the first of the ascending cols that is not below c, len(cols) when there
// is none. c is compared as an int: converted to uint16, an end of
// narrowMax would wrap to 0.
func searchCol[C column](cols []C, c int) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(cols[m]) < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// triBufs recycles the col/val pairs ILUT builds its triangles in.
// Those are sized from a bound (ilutCap), several times what the factor
// ends up holding, and dead as soon as keep has copied the factor out —
// without the pool every factorization allocates, clears and drops them
// again.
var triBufs sync.Pool // of *tri[int32] with a nil ptr

// leaseTri is newTri with col and val taken from triBufs when it holds a
// pair with room for nnz entries. What is built in it is made permanent
// by keep.
func leaseTri(n, nnz int) tri[int32] {
	b, _ := triBufs.Get().(*tri[int32])
	if b == nil || cap(b.col) < nnz || cap(b.val) < nnz {
		return newTri[int32](n, nnz)
	}
	return tri[int32]{ptr: make([]int32, n+1), col: b.col[:0], val: b.val[:0]}
}

// copyOut returns a copy of b at exactly its length with its columns in C —
// a kept factor holds no spare capacity and never a pooled slice — and
// returns the buffers b was built in to triBufs.
func copyOut[C column](b tri[int32]) tri[C] {
	t := tri[C]{ptr: b.ptr, col: make([]C, len(b.col)), val: append(make([]float64, 0, len(b.val)), b.val...)}
	for k, j := range b.col {
		t.col[k] = C(j)
	}
	triBufs.Put(&tri[int32]{col: b.col, val: b.val})
	return t
}

// checkFits guards the narrowing to 32-bit indices: the order of a factor
// and the entry count of each triangle must be representable, or the row
// pointers would wrap silently.
func checkFits(op string, n, nnzL, nnzU int) error {
	switch {
	case n >= math.MaxInt32:
		return badInputErr(op, "order %d does not fit the factor's 32-bit indices", n)
	case nnzL > math.MaxInt32:
		return badInputErr(op, "L part has %d entries, more than 32-bit row pointers address", nnzL)
	case nnzU > math.MaxInt32:
		return badInputErr(op, "U part has %d entries, more than 32-bit row pointers address", nnzU)
	}
	return nil
}

// LU holds an incomplete factorization A ≈ L·U with unit-diagonal L in
// three pieces: the strict lower triangle (without the implicit unit
// diagonal), the strict upper triangle, and piv[i] = U(i,i). Nothing else
// is kept. Up to order narrowMax the triangles hold 16-bit columns — 10
// bytes per off-diagonal entry and 16 per row — and above it 32-bit ones,
// 12 bytes per entry; exactly one of narrow and wide is filled. Both
// widths run the same generic kernels on the same values in the same
// order, so a factor's results do not depend on its width.
type LU struct {
	narrow triangles[uint16] // the triangles of an order up to narrowMax
	wide   triangles[int32]  // the triangles of a larger order
	piv    []float64
	// PivotFixes counts small pivots that were replaced during the
	// factorization to keep it nonsingular (0 for well-behaved matrices).
	PivotFixes int
}

// wideOrder reports whether a factor of order n needs 32-bit columns.
func wideOrder(n int) bool { return n > narrowMax }

// isWide reports whether the factor's columns are 32-bit: whether wide is
// the pair of triangles that was filled.
func (f *LU) isWide() bool { return f.wide.l.ptr != nil }

// keep makes l and u, built with 32-bit columns, the factor's triangles
// at the width its order picks.
func (f *LU) keep(l, u tri[int32]) {
	if wideOrder(f.N()) {
		f.wide = triangles[int32]{copyOut[int32](l), copyOut[int32](u)}
	} else {
		f.narrow = triangles[uint16]{copyOut[uint16](l), copyOut[uint16](u)}
	}
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return len(f.piv) }

// NNZ returns the number of stored factor entries: nnz(L) + nnz(U) + n,
// the strict triangles plus the pivots.
func (f *LU) NNZ() int { return f.narrow.nnz() + f.wide.nnz() + len(f.piv) }

// LRow appends the columns of row i of the strict lower triangle to cols
// and returns them with the row's values, columns ascending. The values
// alias the factor.
func (f *LU) LRow(i int, cols []int32) ([]int32, []float64) {
	if f.isWide() {
		return f.wide.l.rowTo(cols, i)
	}
	return f.narrow.l.rowTo(cols, i)
}

// URow is LRow for the strict upper triangle.
func (f *LU) URow(i int, cols []int32) ([]int32, []float64) {
	if f.isWide() {
		return f.wide.u.rowTo(cols, i)
	}
	return f.narrow.u.rowTo(cols, i)
}

// Pivot returns U(i,i).
func (f *LU) Pivot(i int) float64 { return f.piv[i] }

// SolveFlops returns the flop count of one Solve application, for the
// virtual-time accounting in the distributed solver. The model charges 2
// flops per stored factor entry — the convention every factor type in
// this package follows. The exact kernel count is 2·NNZ() − n (each
// off-diagonal entry costs a multiply and a subtract; each pivot costs
// one divide), so the model over-counts by exactly one flop per row; the
// round 2·NNZ form is kept because the committed goldens and
// EXPERIMENTS.md tables were produced with it. TestLUSolveFlopsModel pins
// both the model and its distance from the exact count.
func (f *LU) SolveFlops() float64 { return 2 * float64(f.NNZ()) }

// checkSolveDims panics unless both vectors of a triangular solve hold at
// least n entries, before anything is written: a short x would otherwise
// die mid-sweep with a bare index panic after x is half overwritten.
func checkSolveDims(op string, n int, x, b []float64) {
	if len(x) < n || len(b) < n {
		panic(fmt.Sprintf("ilu: %s dimension mismatch: factor order %d, len(x)=%d, len(b)=%d",
			op, n, len(x), len(b)))
	}
}

// Solve computes x = U⁻¹·L⁻¹·b by one forward and one backward sweep. x
// and b may alias: a row reads its own b[i] and x entries the sweep has
// already finished. An order-0 factor — a rank that owns no unknowns has
// one — takes any x and b, nil included.
func (f *LU) Solve(x, b []float64) {
	checkSolveDims("LU.Solve", f.N(), x, b)
	if f.isWide() {
		solve(&f.wide, f.piv, x, b)
	} else {
		solve(&f.narrow, f.piv, x, b)
	}
}

// solve runs the two sweeps of Solve. Forward, row i of L·x = b (unit
// diagonal) is b[i] minus the row's entries times the x they name,
// subtracted one by one in ascending column order; backward, row i of
// U·x = x is the same subtraction over the strict upper row, then the
// divide by the pivot.
func solve[C column](t *triangles[C], piv, x, b []float64) {
	for i := range piv {
		cols, vals := t.l.row(i)
		s := b[i]
		for k, v := range vals {
			s -= v * x[cols[k]]
		}
		x[i] = s
	}
	for i := len(piv) - 1; i >= 0; i-- {
		cols, vals := t.u.row(i)
		s := x[i]
		for k, v := range vals {
			s -= v * x[cols[k]]
		}
		x[i] = s / piv[i]
	}
}

// pivotFloor replaces near-zero pivots: |pivot| is raised to
// pivotRel·rowNorm (keeping sign), so the backward solve cannot blow up on
// structurally deficient subdomain blocks (e.g. rows eliminated by
// Dirichlet handling).
const pivotRel = 1e-8

func fixPivot(p, rowNorm float64, fixes *int) float64 {
	floor := pivotRel * rowNorm
	if floor == 0 {
		floor = pivotRel
	}
	if math.Abs(p) >= floor {
		return p
	}
	*fixes++
	if p < 0 {
		return -floor
	}
	return floor
}

// ILU0 computes the zero fill-in incomplete factorization: the factors
// jointly keep exactly the sparsity pattern of a. a must be square with
// sorted rows and a fully nonzero-pattern diagonal (FEM matrices after
// Dirichlet handling always have one). A first pass over the pattern
// checks it and counts each triangle, so the factor is allocated exactly
// full at the width its order picks; each row is then eliminated in a
// scratch copy and written once.
func ILU0(a *sparse.CSR) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, badInputErr("ILU0", "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if err := checkFits("ILU0", n, 0, 0); err != nil {
		return nil, err
	}
	lp, up := make([]int32, n+1), make([]int32, n+1)
	nl, nu, maxRow := 0, 0, 0
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		if len(cols) == 0 {
			// A structurally empty row is a singular matrix, not a pattern
			// deficiency: report it as the typed zero-pivot error.
			return nil, zeroPivotErr("ILU0", i)
		}
		k := sparse.SearchCol(cols, i)
		if k == len(cols) || int(cols[k]) != i {
			return nil, badInputErr("ILU0", "row %d has no diagonal entry", i)
		}
		nl += k
		nu += len(cols) - k - 1
		lp[i+1], up[i+1] = int32(nl), int32(nu)
		if len(cols) > maxRow {
			maxRow = len(cols)
		}
	}
	if err := checkFits("ILU0", n, nl, nu); err != nil {
		return nil, err
	}
	f := &LU{piv: make([]float64, n)}
	var err error
	if wideOrder(n) {
		f.wide, err = ilu0[int32](a, lp, up, maxRow, f.piv, &f.PivotFixes)
	} else {
		f.narrow, err = ilu0[uint16](a, lp, up, maxRow, f.piv, &f.PivotFixes)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ilu0 is ILU0's elimination into triangles with the row pointers lp and
// up of a's pattern, the longest row of which has maxRow entries: the
// pivots land in piv and the count of replaced ones in fixes.
func ilu0[C column](a *sparse.CSR, lp, up []int32, maxRow int, piv []float64, fixes *int) (triangles[C], error) {
	n := len(piv)
	nl, nu := lp[n], up[n]
	t := triangles[C]{
		l: tri[C]{ptr: lp, col: make([]C, nl), val: make([]float64, nl)},
		u: tri[C]{ptr: up, col: make([]C, nu), val: make([]float64, nu)},
	}
	uc, uv := t.u.col, t.u.val
	w := make([]float64, maxRow) // the current row, in a's entry order
	// pos[c] = index of column c within the current row, or -1.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		row := w[:len(cols)]
		var rowNorm float64
		for k, j := range cols {
			pos[j] = k
			row[k] = vals[k]
			rowNorm += math.Abs(vals[k])
		}
		if rowNorm == 0 {
			return t, zeroPivotErr("ILU0", i)
		}
		rowNorm /= float64(len(cols))
		d := int(lp[i+1] - lp[i]) // the diagonal's index within the row
		for k := 0; k < d; k++ {
			kk := cols[k] // eliminate with pivot row kk < i
			lik := row[k] / piv[kk]
			row[k] = lik
			// Subtract lik · U-part of row kk, restricted to our pattern.
			for kj := up[kk]; kj < up[kk+1]; kj++ {
				if p := pos[uc[kj]]; p >= 0 {
					row[p] -= lik * uv[kj]
				}
			}
		}
		lc, lv := t.l.row(i)
		for k := range lc {
			lc[k] = C(cols[k])
			lv[k] = row[k]
		}
		piv[i] = fixPivot(row[d], rowNorm, fixes)
		rc, rv := t.u.row(i)
		for k := range rc {
			rc[k] = C(cols[d+1+k])
			rv[k] = row[d+1+k]
		}
		for _, j := range cols {
			pos[j] = -1
		}
	}
	return t, nil
}
