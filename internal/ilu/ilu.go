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
// streams U without stepping over the other triangle, and the column
// indices are 32-bit. The factorizations write that layout directly.
package ilu

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/sparse"
)

// tri is one strict triangle of a factorization in CSR form with 32-bit
// indices: row i owns col[ptr[i]:ptr[i+1]] and the matching val entries,
// columns strictly ascending.
type tri struct {
	ptr []int32
	col []int32
	val []float64
}

// newTri returns an n-row triangle with room for nnz entries; rows are
// appended in order with endRow.
func newTri(n, nnz int) tri {
	return tri{ptr: make([]int32, n+1), col: make([]int32, 0, nnz), val: make([]float64, 0, nnz)}
}

func (t *tri) push(j int, v float64) {
	t.col = append(t.col, int32(j))
	t.val = append(t.val, v)
}

func (t *tri) endRow(i int) { t.ptr[i+1] = int32(len(t.col)) }

func (t *tri) row(i int) ([]int32, []float64) {
	lo, hi := t.ptr[i], t.ptr[i+1]
	return t.col[lo:hi], t.val[lo:hi]
}

// triBufs recycles the col/val pairs eliminate builds its triangles in.
// Those are sized from a bound (ilutCap), several times what the factor
// ends up holding, and dead as soon as keep has copied the factor out —
// without the pool every factorization allocates, clears and drops them
// again.
var triBufs sync.Pool // of *tri with a nil ptr

// leaseTri is newTri with col and val taken from triBufs when it holds a
// pair with room for nnz entries. What is built in it is made permanent
// by keep.
func leaseTri(n, nnz int) tri {
	b, _ := triBufs.Get().(*tri)
	if b == nil || cap(b.col) < nnz || cap(b.val) < nnz {
		return newTri(n, nnz)
	}
	return tri{ptr: make([]int32, n+1), col: b.col[:0], val: b.val[:0]}
}

// keep replaces col and val by copies of exactly their length — a kept
// factor holds no spare capacity and never a pooled slice — and returns
// the buffers they were built in to triBufs.
func (t *tri) keep() {
	b := &tri{col: t.col, val: t.val}
	t.col = append(make([]int32, 0, len(b.col)), b.col...)
	t.val = append(make([]float64, 0, len(b.val)), b.val...)
	triBufs.Put(b)
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
// three pieces: the strict lower triangle l (without the implicit unit
// diagonal), the strict upper triangle u, and piv[i] = U(i,i). Nothing
// else is kept — 12 bytes per off-diagonal entry and 16 per row.
type LU struct {
	l, u tri
	piv  []float64
	// PivotFixes counts small pivots that were replaced during the
	// factorization to keep it nonsingular (0 for well-behaved matrices).
	PivotFixes int
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return len(f.piv) }

// NNZ returns the number of stored factor entries: nnz(L) + nnz(U) + n,
// the strict triangles plus the pivots.
func (f *LU) NNZ() int { return len(f.l.val) + len(f.u.val) + len(f.piv) }

// LRow returns the columns and values of row i of the strict lower
// triangle, columns ascending. The slices alias the factor.
func (f *LU) LRow(i int) ([]int32, []float64) { return f.l.row(i) }

// URow returns the columns and values of row i of the strict upper
// triangle, columns ascending. The slices alias the factor.
func (f *LU) URow(i int) ([]int32, []float64) { return f.u.row(i) }

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
//
//lint:allocfree verified dynamically by TestLUSolveZeroAllocSteadyState
func (f *LU) Solve(x, b []float64) {
	n := f.N()
	checkSolveDims("LU.Solve", n, x, b)
	for i := 0; i < n; i++ {
		f.forwardRow(x, b, i)
	}
	for i := n - 1; i >= 0; i-- {
		f.backwardRow(x, i)
	}
}

// forwardRow finishes row i of L·x = b (unit diagonal): b[i] minus the
// row's entries times the x they name, subtracted one by one in ascending
// column order.
func (f *LU) forwardRow(x, b []float64, i int) {
	cols, vals := f.l.row(i)
	s := b[i]
	for k, v := range vals {
		s -= v * x[cols[k]]
	}
	x[i] = s
}

// backwardRow finishes row i of U·x = x in place: the same subtraction
// over the strict upper row, then the divide by the pivot.
func (f *LU) backwardRow(x []float64, i int) {
	cols, vals := f.u.row(i)
	s := x[i]
	for k, v := range vals {
		s -= v * x[cols[k]]
	}
	x[i] = s / f.piv[i]
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
// full; each row is then eliminated in a scratch copy and written once.
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
	f := &LU{
		l:   tri{ptr: lp, col: make([]int32, nl), val: make([]float64, nl)},
		u:   tri{ptr: up, col: make([]int32, nu), val: make([]float64, nu)},
		piv: make([]float64, n),
	}
	uc, uv, piv := f.u.col, f.u.val, f.piv
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
			return nil, zeroPivotErr("ILU0", i)
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
		lc, lv := f.l.row(i)
		for k := range lc {
			lc[k] = cols[k]
			lv[k] = row[k]
		}
		piv[i] = fixPivot(row[d], rowNorm, &f.PivotFixes)
		rc, rv := f.u.row(i)
		for k := range rc {
			rc[k] = cols[d+1+k]
			rv[k] = row[d+1+k]
		}
		for _, j := range cols {
			pos[j] = -1
		}
	}
	return f, nil
}
