// Package sparse provides the sparse and dense linear-algebra kernels that
// every other package in this repository builds on: compressed sparse row
// (CSR) matrices, coordinate (COO) assembly, dense blocks with LU solves,
// permutations, and the vector kernels used by the Krylov solvers.
//
// The package is deliberately self-contained and allocation-conscious: the
// hot kernels (MulVecTo, triangular solves in package ilu) never allocate,
// so they can sit inside distributed solver loops.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"parapre/internal/par"
	"parapre/internal/paranoid"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i owns the half-open index range RowPtr[i]:RowPtr[i+1] of ColIdx and
// Val. Column indices within a row are strictly increasing after
// normalization (FromCOO and all constructors in this package guarantee
// it); SortRows restores the invariant after manual surgery. Column
// indices and row pointers are 32-bit — a stored entry is 12 bytes with its
// value, a row 4 more — so a matrix has at most math.MaxInt32 columns and
// as many entries, which NewCSR enforces. Kernels read a row's bounds into
// int once per row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64

	// rowPart caches the nnz-balanced row partition used by the parallel
	// matrix-vector kernels — see rowPartition.
	rowPart RowSegments

	// bsr caches the blocked-format detection verdict of the adaptive
	// matvec router — see blocked in bsr.go. Mutating methods invalidate
	// it; direct Val edits require InvalidateBlocked.
	bsr atomic.Pointer[bsrCache]
}

// NewCSR returns an empty r×c matrix with capacity for nnz nonzeros. It
// panics when c or nnz is more than math.MaxInt32, the most columns 32-bit
// column indices and the most entries 32-bit row pointers address.
func NewCSR(r, c, nnz int) *CSR {
	checkCols("NewCSR", c)
	checkEntries("NewCSR", nnz)
	return &CSR{
		Rows:   r,
		Cols:   c,
		RowPtr: make([]int32, r+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
}

// checkCols panics when a matrix of c columns cannot store them in 32 bits:
// a column past the limit would wrap silently, which is always a
// programming error in whoever sized the matrix.
func checkCols(op string, c int) {
	if c > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %s with %d columns, more than the %d that 32-bit column indices address", op, c, math.MaxInt32))
	}
}

// checkEntries panics when nnz entries cannot be addressed by 32-bit row
// pointers, for the same reason.
func checkEntries(op string, nnz int) {
	if nnz > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %s with %d entries, more than the %d that 32-bit row pointers address", op, nnz, math.MaxInt32))
	}
}

// rowEnd is the row pointer of a row that ends after n entries, checked.
func rowEnd(op string, n int) int32 {
	checkEntries(op, n)
	return int32(n)
}

// EndRow closes row i at the entries appended so far: RowPtr[i+1] becomes
// len(ColIdx). A builder that appends row by row calls it after each row;
// it panics past math.MaxInt32 entries.
func (a *CSR) EndRow(i int) { a.RowPtr[i+1] = rowEnd("EndRow", len(a.ColIdx)) }

// Dims returns the matrix dimensions.
func (a *CSR) Dims() (r, c int) { return a.Rows, a.Cols }

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// RowNNZ returns the number of stored entries in row i.
func (a *CSR) RowNNZ(i int) int { return int(a.RowPtr[i+1] - a.RowPtr[i]) }

// Row returns the column-index and value slices of row i. The slices alias
// the matrix storage; callers must not grow them.
func (a *CSR) Row(i int) (cols []int32, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// SearchCol returns the index of the first entry of the ascending cols that
// is at least c: where column c is, or would be inserted, in a sorted row
// (len(cols) when every entry is smaller).
//
//lint:ignore dimguard a binary search: every index it reads is a midpoint below len(cols)
func SearchCol(cols []int32, c int) int {
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

// find returns row i's values, the index of entry (i, j) among them and
// whether that entry is stored.
func (a *CSR) find(i, j int) ([]float64, int, bool) {
	cols, vals := a.Row(i)
	k := SearchCol(cols, j)
	return vals, k, k < len(cols) && int(cols[k]) == j
}

// At returns the entry (i, j), or 0 if it is not stored. It binary-searches
// the row and is intended for tests and assembly-time inspection, not for
// inner loops.
func (a *CSR) At(i, j int) float64 {
	if vals, k, ok := a.find(i, j); ok {
		return vals[k]
	}
	return 0
}

// SetExisting overwrites the stored entry (i, j) and reports whether the
// entry exists in the sparsity pattern.
func (a *CSR) SetExisting(i, j int, v float64) bool {
	vals, k, ok := a.find(i, j)
	if ok {
		vals[k] = v
		a.InvalidateBlocked()
	}
	return ok
}

// AddExisting adds v to the stored entry (i, j) and reports whether the
// entry exists in the sparsity pattern.
func (a *CSR) AddExisting(i, j int, v float64) bool {
	vals, k, ok := a.find(i, j)
	if ok {
		vals[k] += v
		a.InvalidateBlocked()
	}
	return ok
}

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int32(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// MulVec returns y = A·x as a fresh slice.
func (a *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, a.Rows)
	a.MulVecTo(y, x)
	return y
}

// rowPartition returns segment boundaries splitting the rows into segs
// contiguous ranges of roughly equal nonzero count, cached in rowPart.
func (a *CSR) rowPartition(segs int) []int {
	return a.rowPart.Bounds(segs, a.Rows, a.NNZ(), a.RowNNZ)
}

// mulRange computes y[lo:hi] = A[lo:hi]·x — the serial SpMV restricted to
// a row range. Each row is an independent left-to-right accumulation, so
// any row partition yields bit-identical results. Hoisting each row into
// local slices lets the compiler drop the bounds checks of the value and
// column loads, which is worth 15–25% on stencil rows.
func (a *CSR) mulRange(y, x []float64, first, end int) {
	rp, ci, vv := a.RowPtr, a.ColIdx, a.Val
	for i := first; i < end; i++ {
		var s float64
		lo, hi := int(rp[i]), int(rp[i+1])
		row := vv[lo:hi]
		cols := ci[lo:hi]
		for k, v := range row {
			s += v * x[cols[k]]
		}
		y[i] = s
	}
}

func (a *CSR) mulAddRange(y []float64, alpha float64, x []float64, first, end int) {
	rp, ci, vv := a.RowPtr, a.ColIdx, a.Val
	for i := first; i < end; i++ {
		var s float64
		lo, hi := int(rp[i]), int(rp[i+1])
		row := vv[lo:hi]
		cols := ci[lo:hi]
		for k, v := range row {
			s += v * x[cols[k]]
		}
		y[i] += alpha * s
	}
}

func (a *CSR) mulSubRange(y, x []float64, first, end int) {
	rp, ci, vv := a.RowPtr, a.ColIdx, a.Val
	for i := first; i < end; i++ {
		var s float64
		lo, hi := int(rp[i]), int(rp[i+1])
		row := vv[lo:hi]
		cols := ci[lo:hi]
		for k, v := range row {
			s += v * x[cols[k]]
		}
		y[i] -= s
	}
}

func (a *CSR) checkMulDims(op string, y, x []float64) {
	if len(x) < a.Cols || len(y) < a.Rows {
		panic(fmt.Sprintf("sparse: %s dimension mismatch: A is %d×%d, len(x)=%d, len(y)=%d",
			op, a.Rows, a.Cols, len(x), len(y)))
	}
}

// MulVecTo computes y = A·x without allocating. x must have length Cols
// and y length Rows; y and x must not alias. Large matrices are swept in
// parallel over the cached nnz-balanced row partition; every row is still
// accumulated left-to-right, so the result is bit-identical to the serial
// sweep at any worker count.
//
//lint:allocfree steady state once the row partition and block cache are built; verified dynamically by TestCSRMulVecToZeroAllocSteadyState
func (a *CSR) MulVecTo(y, x []float64) {
	a.Validate()
	a.checkMulDims("MulVecTo", y, x)
	if b := a.blocked(); b != nil {
		b.MulVecTo(y, x)
		return
	}
	if w := par.Workers(); w > 1 && a.NNZ() >= ParMinNNZ {
		par.ForSegments(a.rowPartition(w), func(lo, hi int) { a.mulRange(y, x, lo, hi) })
		return
	}
	a.mulRange(y, x, 0, a.Rows)
}

// MulVecAdd computes y += alpha * A·x without allocating. Dimension rules
// and parallelism are as for MulVecTo.
func (a *CSR) MulVecAdd(y []float64, alpha float64, x []float64) {
	a.Validate()
	a.checkMulDims("MulVecAdd", y, x)
	if b := a.blocked(); b != nil {
		b.MulVecAdd(y, alpha, x)
		return
	}
	if w := par.Workers(); w > 1 && a.NNZ() >= ParMinNNZ {
		par.ForSegments(a.rowPartition(w), func(lo, hi int) { a.mulAddRange(y, alpha, x, lo, hi) })
		return
	}
	a.mulAddRange(y, alpha, x, 0, a.Rows)
}

// MulVecSub computes y -= A·x without allocating. It is the residual-update
// kernel used by the Schur-complement right-hand-side construction.
// Dimension rules and parallelism are as for MulVecTo.
func (a *CSR) MulVecSub(y, x []float64) {
	a.Validate()
	a.checkMulDims("MulVecSub", y, x)
	if b := a.blocked(); b != nil {
		b.MulVecSub(y, x)
		return
	}
	if w := par.Workers(); w > 1 && a.NNZ() >= ParMinNNZ {
		par.ForSegments(a.rowPartition(w), func(lo, hi int) { a.mulSubRange(y, x, lo, hi) })
		return
	}
	a.mulSubRange(y, x, 0, a.Rows)
}

// Transpose returns Aᵀ with sorted rows.
func (a *CSR) Transpose() *CSR {
	t := NewCSR(a.Cols, a.Rows, 0)
	t.ColIdx = make([]int32, a.NNZ())
	t.Val = make([]float64, a.NNZ())
	// Count entries per column of a.
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < a.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int32(nil), t.RowPtr...)
	for i := 0; i < a.Rows; i++ {
		for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
			j := a.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = int32(i)
			t.Val[p] = a.Val[k]
			next[j]++
		}
	}
	return t
}

// Diagonal returns a copy of the main diagonal (missing entries are 0).
func (a *CSR) Diagonal() []float64 {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// Scale multiplies every stored entry by s.
func (a *CSR) Scale(s float64) {
	for k := range a.Val {
		a.Val[k] *= s
	}
	a.InvalidateBlocked()
}

// insertionSortMaxRow is the row length up to which SortRows uses the
// allocation-free insertion sort (SortRow). FEM and stencil rows (a handful of
// entries) always stay below it.
const insertionSortMaxRow = 32

// SortRows sorts the column indices within each row, keeping values
// aligned. Constructors produce sorted rows already; this is for callers
// that build RowPtr/ColIdx/Val by hand. Short rows (the overwhelmingly
// common case) are insertion-sorted with no allocation; one reused sorter
// handles the rare long rows, so the whole pass allocates at most once
// instead of once per row.
func (a *CSR) SortRows() {
	a.InvalidateBlocked()
	var s rowSorter
	for i := 0; i < a.Rows; i++ {
		lo, hi := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		if hi-lo < 2 {
			continue
		}
		cols := a.ColIdx[lo:hi]
		vals := a.Val[lo:hi]
		if hi-lo <= insertionSortMaxRow {
			SortRow(cols, vals)
			continue
		}
		s.cols, s.vals = cols, vals
		sort.Sort(&s)
	}
}

type rowSorter struct {
	cols []int32
	vals []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// Validate panics if the CSR structural invariants (see CheckValid) are
// violated. It is compiled in only under the `paranoid` build tag; in the
// default build it is an empty function the compiler inlines away, so the
// kernels can call it unconditionally at their entry points.
func (a *CSR) Validate() {
	if !paranoid.Enabled {
		return
	}
	if err := a.CheckValid(); err != nil {
		panic("paranoid: " + err.Error())
	}
}

// CheckValid verifies the CSR structural invariants: monotone RowPtr,
// in-range sorted unique column indices. It returns a descriptive error for
// the first violation found, or nil.
func (a *CSR) CheckValid() error {
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if int(a.RowPtr[a.Rows]) != len(a.ColIdx) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: storage lengths inconsistent: RowPtr[end]=%d len(ColIdx)=%d len(Val)=%d",
			a.RowPtr[a.Rows], len(a.ColIdx), len(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
			j := int(a.ColIdx[k])
			if j < 0 || j >= a.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing (%d after %d)", i, j, prev)
			}
			prev = j
		}
	}
	return nil
}

// Dense expands the matrix to a dense representation. For tests and small
// coarse-grid systems only.
func (a *CSR) Dense() *Dense {
	d := NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
			d.Set(i, int(a.ColIdx[k]), a.Val[k])
		}
	}
	return d
}

// Equal reports whether a and b have identical dimensions, patterns and
// values.
func (a *CSR) Equal(b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		//lint:ignore floatcmp Equal's contract is bit-exact value identity (determinism tests rely on it)
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// String returns a compact summary, not the full contents.
func (a *CSR) String() string {
	return fmt.Sprintf("CSR{%d×%d, nnz=%d}", a.Rows, a.Cols, a.NNZ())
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	a := NewCSR(n, n, n)
	for i := 0; i < n; i++ {
		a.ColIdx = append(a.ColIdx, int32(i))
		a.Val = append(a.Val, 1)
		a.EndRow(i)
	}
	return a
}
