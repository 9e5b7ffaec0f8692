package ilu

import "parapre/internal/sparse"

// ExtractTrailing returns the trailing sub-factorization of f for the
// unknowns [start, n): rows ≥ start with columns ≥ start, indices shifted
// to zero. When the factored matrix was ordered internal-first /
// interface-last (as every dsys.System is), the result is the L_S·U_S
// pair of the paper's §2 — an incomplete factorization of the local Schur
// complement S_i = C_i − E_i·B_i⁻¹·F_i, obtained for free from the
// subdomain factorization.
func ExtractTrailing(f *LU, start int) (*LU, error) {
	n := f.N()
	if start < 0 || start > n {
		return nil, badInputErr("ExtractTrailing", "start %d out of [0,%d]", start, n)
	}
	// A trailing row keeps its whole U part (columns > i ≥ start) and the
	// tail of its L part.
	nl := 0
	for i := start; i < n; i++ {
		cols, _ := f.l.row(i)
		nl += len(cols) - sparse.SearchCol(cols, start)
	}
	out := &LU{
		l:   newTri(n-start, nl),
		u:   newTri(n-start, len(f.u.col)-int(f.u.ptr[start])),
		piv: append(make([]float64, 0, n-start), f.piv[start:]...),
	}
	for i := start; i < n; i++ {
		cols, vals := f.l.row(i)
		k := sparse.SearchCol(cols, start)
		out.l.pushShifted(cols[k:], vals[k:], start)
		out.l.endRow(i - start)
		cols, vals = f.u.row(i)
		out.u.pushShifted(cols, vals, start)
		out.u.endRow(i - start)
	}
	return out, nil
}

// ExtractLeading returns the leading sub-factorization of f for the
// unknowns [0, end): rows < end with columns < end. Because incomplete
// elimination of the first rows never involves later rows, this is
// exactly the incomplete factorization of the leading block B_i — the
// paper's Schur 1 preconditioner obtains its approximate B_i-solve this
// way from the same subdomain factorization that supplies L_S·U_S.
func ExtractLeading(f *LU, end int) (*LU, error) {
	n := f.N()
	if end < 0 || end > n {
		return nil, badInputErr("ExtractLeading", "end %d out of [0,%d]", end, n)
	}
	// A leading row keeps its whole L part (columns < i < end) and the head
	// of its U part.
	nu := 0
	for i := 0; i < end; i++ {
		cols, _ := f.u.row(i)
		nu += sparse.SearchCol(cols, end)
	}
	out := &LU{
		l:   newTri(end, int(f.l.ptr[end])),
		u:   newTri(end, nu),
		piv: append(make([]float64, 0, end), f.piv[:end]...),
	}
	for i := 0; i < end; i++ {
		cols, vals := f.l.row(i)
		out.l.pushShifted(cols, vals, 0)
		out.l.endRow(i)
		cols, vals = f.u.row(i)
		k := sparse.SearchCol(cols, end)
		out.u.pushShifted(cols[:k], vals[:k], 0)
		out.u.endRow(i)
	}
	return out, nil
}

// pushShifted appends a run of entries with their columns moved down by
// shift.
func (t *tri) pushShifted(cols []int32, vals []float64, shift int) {
	for _, j := range cols {
		t.col = append(t.col, j-int32(shift))
	}
	t.val = append(t.val, vals...)
}

// Product multiplies the factors back: returns L·U as a dense matrix.
// Test oracle — for complete factorizations it must reproduce A, and the
// trailing product must reproduce the exact Schur complement.
func (f *LU) Product() *sparse.Dense {
	n := f.N()
	out := sparse.NewDense(n, n)
	// addURow adds s times row k of U, pivot included, to row i.
	addURow := func(i, k int, s float64) {
		out.Add(i, k, s*f.Pivot(k))
		cols, vals := f.URow(k)
		for t, j := range cols {
			out.Add(i, int(j), s*vals[t])
		}
	}
	for i := 0; i < n; i++ {
		addURow(i, i, 1) // L(i,i) = 1
		cols, vals := f.LRow(i)
		for t, k := range cols {
			addURow(i, int(k), vals[t])
		}
	}
	return out
}
