package dsys

import (
	"fmt"

	"parapre/internal/par"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// extractBlock copies the submatrix of a with rows [r0, r1) and columns
// [c0, c1), shifting indices to start at zero. It counts before it
// allocates: the blocks live as long as whoever asked for them, so they
// carry no spare capacity.
func extractBlock(a *sparse.CSR, r0, r1, c0, c1 int) *sparse.CSR {
	nnz := 0
	for _, c := range a.ColIdx[a.RowPtr[r0]:a.RowPtr[r1]] {
		if j := int(c); j >= c0 && j < c1 {
			nnz++
		}
	}
	out := sparse.NewCSR(r1-r0, c1-c0, nnz)
	for i := r0; i < r1; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if j := int(c); j >= c0 && j < c1 {
				out.ColIdx = append(out.ColIdx, int32(j-c0))
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i-r0+1] = len(out.ColIdx)
	}
	return out
}

// OwnedBlock returns the square NLoc×NLoc block of this subdomain's rows
// restricted to its owned columns — the A_i that the block preconditioners
// factor (external couplings are what block Jacobi discards).
func (s *System) OwnedBlock() *sparse.CSR { return extractBlock(s.A, 0, s.NLoc(), 0, s.NLoc()) }

// CheckStructure validates the subdomain invariants of §1.1: internal rows
// reference only owned columns (internal nodes have no couplings across
// the subdomain boundary), column indices are in range, and every external
// column is covered by exactly one neighbor's receive block.
func (s *System) CheckStructure() error {
	if err := s.A.CheckValid(); err != nil {
		return fmt.Errorf("rank %d: %w", s.Rank, err)
	}
	for i := 0; i < s.NInt; i++ {
		cols, _ := s.A.Row(i)
		for _, j := range cols {
			if int(j) >= s.NLoc() {
				return fmt.Errorf("rank %d: internal row %d references external column %d", s.Rank, i, j)
			}
		}
	}
	covered := make([]int, s.NExt())
	for _, nb := range s.Neigh {
		for k := 0; k < nb.RecvLen; k++ {
			covered[nb.RecvOff+k]++
		}
	}
	for k, c := range covered {
		if c != 1 {
			return fmt.Errorf("rank %d: external slot %d covered %d times", s.Rank, k, c)
		}
	}
	if s.NInt > s.NLoc() {
		return fmt.Errorf("rank %d: NInt %d > NLoc %d", s.Rank, s.NInt, s.NLoc())
	}
	return nil
}

// Part names a block of the subdomain matrix: one of the 2×2 split of
// eq. (4), or the couplings to the external interface unknowns of eq. (5).
type Part uint8

const (
	PartB    Part = iota // B_i: internal rows, internal columns
	PartF                // F_i: internal rows, interface columns
	PartE                // E_i: interface rows, internal columns
	PartC                // C_i: interface rows, interface columns
	PartEExt             // the E_ij: interface rows, external columns in external-buffer order
)

// rowSplits is where the parts meet inside the sorted rows of A, as offsets
// from each row's start: the first own[i] entries of row i have an internal
// column, and the first ext[i−NInt] entries of interface row i an owned one.
// An internal row needs one split: it has no external column
// (CheckStructure). coupled lists the internal rows with an interface
// column, the rows of F that are not empty — few beside NInt.
type rowSplits struct {
	own     []int32 // per row
	ext     []int32 // per interface row
	coupled []int32
}

// splitRows returns the row splits, computing them on first use. They are
// the system's, shared by every window onto it — and by every session of a
// layout — and cost nothing to a system no Schur preconditioner reads.
func (s *System) splitRows() *rowSplits {
	if sp := s.splits.Load(); sp != nil {
		return sp
	}
	nInt, nLoc := s.NInt, s.NLoc()
	sp := &rowSplits{own: make([]int32, nLoc), ext: make([]int32, nLoc-nInt)}
	nc := 0
	for i := range sp.own {
		cols, _ := s.A.Row(i)
		sp.own[i] = int32(sparse.SearchCol(cols, nInt))
		switch {
		case i >= nInt:
			sp.ext[i-nInt] = int32(sparse.SearchCol(cols, nLoc))
		case int(sp.own[i]) < len(cols):
			nc++
			paranoid.Check(int(cols[len(cols)-1]) < nLoc, "dsys: rank %d: internal row %d references an external column", s.Rank, i)
		}
	}
	sp.coupled = make([]int32, 0, nc)
	for i := 0; i < nInt; i++ {
		if s.A.RowPtr[i]+int(sp.own[i]) < s.A.RowPtr[i+1] {
			sp.coupled = append(sp.coupled, int32(i))
		}
	}
	if s.splits.CompareAndSwap(nil, sp) {
		return sp
	}
	return s.splits.Load()
}

// Window is one Part of the subdomain matrix read in place. Rows are sorted
// and the local numbering puts internal columns first, interface next and
// external last, so row i of a part is one run of row r0+i of A: it starts
// lo[i] entries into that row (at its start when lo is nil) and ends hi[i]
// entries into it (at its end when hi is nil). Columns are shifted down by
// c0. A window holds no entry of its own.
//
// The three products accumulate each row in ascending column order and
// apply the sum as the CSR kernels do, so they equal the products of the
// part's extracted copy (CSR) bit for bit — whether that copy would have
// routed through its blocked twin or not. Like the copy's, they split the
// rows across the workers once the part has sparse.ParMinNNZ entries.
type Window struct {
	Rows, Cols int
	a          *sparse.CSR
	r0, c0     int
	lo, hi     []int32
	rows       []int32 // when not nil, the rows whose run is not empty
	nnz        int
	seg        sparse.RowSegments
}

// Window returns part p of the subdomain matrix.
func (s *System) Window(p Part) *Window {
	sp := s.splitRows()
	nInt, nLoc := s.NInt, s.NLoc()
	nIfc := nLoc - nInt
	w := &Window{a: s.A}
	switch p {
	case PartB:
		w.Rows, w.Cols, w.hi = nInt, nInt, sp.own[:nInt]
	case PartF:
		w.Rows, w.Cols, w.c0, w.lo, w.rows = nInt, nIfc, nInt, sp.own[:nInt], sp.coupled
	case PartE:
		w.Rows, w.Cols, w.r0, w.hi = nIfc, nInt, nInt, sp.own[nInt:]
	case PartC:
		w.Rows, w.Cols, w.r0, w.c0, w.lo, w.hi = nIfc, nIfc, nInt, nInt, sp.own[nInt:], sp.ext
	case PartEExt:
		w.Rows, w.Cols, w.r0, w.c0, w.lo = nIfc, s.NExt(), nInt, nLoc, sp.ext
	default:
		panic(fmt.Sprintf("dsys: no part %d", p))
	}
	for i := 0; i < w.Rows; i++ {
		lo, hi := w.span(i)
		w.nnz += hi - lo
	}
	return w
}

// NNZ returns the number of entries of the part.
func (w *Window) NNZ() int { return w.nnz }

// CSR copies the part out as a matrix of its own, for the callers that
// factor it.
func (w *Window) CSR() *sparse.CSR {
	return extractBlock(w.a, w.r0, w.r0+w.Rows, w.c0, w.c0+w.Cols)
}

// span returns the entries of window row i as an index range of A.
func (w *Window) span(i int) (lo, hi int) {
	lo, hi = w.a.RowPtr[w.r0+i], w.a.RowPtr[w.r0+i+1]
	if w.hi != nil {
		hi = lo + int(w.hi[i])
	}
	if w.lo != nil {
		lo += int(w.lo[i])
	}
	return lo, hi
}

func (w *Window) checkMulDims(op string, y, x []float64) {
	if len(x) < w.Cols || len(y) < w.Rows {
		panic(fmt.Sprintf("dsys: Window.%s dimension mismatch: part is %d×%d, len(x)=%d, len(y)=%d",
			op, w.Rows, w.Cols, len(x), len(y)))
	}
}

// How mul applies a row's sum to y.
const (
	set = iota
	add
	sub
)

// put applies the sum s of row i the way sparse.CSR's kernels do.
func put(how int, y []float64, i int, alpha, s float64) {
	switch how {
	case set:
		y[i] = s
	case add:
		y[i] += alpha * s
	default:
		y[i] -= s
	}
}

// listed reports whether the product visits only the rows listed: F, set
// or subtracted, for an empty row's sum is +0 and y − (+0) is y. (Added, it
// would turn a −0 in y into +0.)
func (w *Window) listed(how int) bool { return w.rows != nil && how != add }

// segments splits the rows the product sweeps — the rows listed, or all —
// into segs runs of about equal entry counts.
func (w *Window) segments(how, segs int) []int {
	if w.listed(how) {
		return w.seg.Bounds(segs, len(w.rows), w.nnz, w.listedLen)
	}
	return w.seg.Bounds(segs, w.Rows, w.nnz, w.spanLen)
}

// spanLen and listedLen count the entries of window row i and of the k-th
// row listed.
func (w *Window) spanLen(i int) int {
	lo, hi := w.span(i)
	return hi - lo
}

func (w *Window) listedLen(k int) int { return w.spanLen(int(w.rows[k])) }

// mul is the three products. Large parts split their rows into segments,
// one per worker; every row's sum is the same in any split.
func (w *Window) mul(how int, y []float64, alpha float64, x []float64) {
	n := w.Rows
	if w.listed(how) {
		if how == set {
			clear(y[:w.Rows])
		}
		n = len(w.rows)
	}
	if wk := par.Workers(); wk > 1 && w.nnz >= sparse.ParMinNNZ {
		par.ForSegments(w.segments(how, wk), func(lo, hi int) { w.mulRange(how, y, alpha, x, lo, hi) })
		return
	}
	w.mulRange(how, y, alpha, x, 0, n)
}

// mulRange computes the product over window rows [from, to), or over
// entries [from, to) of the list when the rows listed are visited: every
// row summed from +0 left to right, as sparse.CSR's row kernels sum, then
// put. Two shapes have loops of their own. A leading part (B, E): runs that
// start their rows, columns unshifted, which keeps the hot B product as
// fast as a copy's. And the rows listed.
func (w *Window) mulRange(how int, y []float64, alpha float64, x []float64, from, to int) {
	rp := w.a.RowPtr[w.r0 : w.r0+w.Rows+1]
	ci, vv, c0, lo, hi := w.a.ColIdx, w.a.Val, w.c0, w.lo, w.hi
	switch {
	case lo == nil:
		for i, b := range rp[from:to] {
			i += from
			e := b + int(hi[i])
			cols := ci[b:e]
			var s float64
			for k, v := range vv[b:e] {
				s += v * x[cols[k]]
			}
			put(how, y, i, alpha, s)
		}
		return
	case w.listed(how):
		for _, i := range w.rows[from:to] {
			b, e := rp[i]+int(lo[i]), rp[i+1]
			cols := ci[b:e]
			var s float64
			for k, v := range vv[b:e] {
				s += v * x[int(cols[k])-c0]
			}
			put(how, y, int(i), alpha, s)
		}
		return
	}
	for i, r := range rp[from:to] {
		i += from
		b, e := r+int(lo[i]), rp[i+1]
		if hi != nil {
			e = r + int(hi[i])
		}
		cols := ci[b:e]
		var s float64
		for k, v := range vv[b:e] {
			s += v * x[int(cols[k])-c0]
		}
		put(how, y, i, alpha, s)
	}
}

// MulVecTo computes y = W·x without allocating. y and x must not alias.
func (w *Window) MulVecTo(y, x []float64) {
	w.checkMulDims("MulVecTo", y, x)
	w.mul(set, y, 0, x)
}

// MulVecAdd computes y += alpha·W·x without allocating.
func (w *Window) MulVecAdd(y []float64, alpha float64, x []float64) {
	w.checkMulDims("MulVecAdd", y, x)
	w.mul(add, y, alpha, x)
}

// MulVecSub computes y -= W·x without allocating.
func (w *Window) MulVecSub(y, x []float64) {
	w.checkMulDims("MulVecSub", y, x)
	w.mul(sub, y, 0, x)
}
