package ilu

import "parapre/internal/sparse"

// ExtractTrailing returns the trailing sub-factorization of f for the
// unknowns [start, n): rows ≥ start with columns ≥ start, indices shifted
// to zero. When the factored matrix was ordered internal-first /
// interface-last (as every dsys.System is), the result is the L_S·U_S
// pair of the paper's §2 — an incomplete factorization of the local Schur
// complement S_i = C_i − E_i·B_i⁻¹·F_i, obtained for free from the
// subdomain factorization. A trailing row keeps its whole U part (columns
// > i ≥ start) and the tail of its L part.
func ExtractTrailing(f *LU, start int) (*LU, error) {
	n := f.N()
	if start < 0 || start > n {
		return nil, badInputErr("ExtractTrailing", "start %d out of [0,%d]", start, n)
	}
	return sub(f, start, n), nil
}

// ExtractLeading returns the leading sub-factorization of f for the
// unknowns [0, end): rows < end with columns < end. Because incomplete
// elimination of the first rows never involves later rows, this is
// exactly the incomplete factorization of the leading block B_i — the
// paper's Schur 1 preconditioner obtains its approximate B_i-solve this
// way from the same subdomain factorization that supplies L_S·U_S. A
// leading row keeps its whole L part (columns < i < end) and the head of
// its U part.
func ExtractLeading(f *LU, end int) (*LU, error) {
	n := f.N()
	if end < 0 || end > n {
		return nil, badInputErr("ExtractLeading", "end %d out of [0,%d]", end, n)
	}
	return sub(f, 0, end), nil
}

// sub returns the factor of f's rows [lo, hi) restricted to the columns
// [lo, hi), shifted down by lo, at the width its own order picks.
func sub(f *LU, lo, hi int) *LU {
	out := &LU{piv: append(make([]float64, 0, hi-lo), f.piv[lo:hi]...)}
	switch {
	case !f.isWide():
		out.narrow = extract[uint16, uint16](&f.narrow, lo, hi)
	case !wideOrder(hi - lo):
		out.narrow = extract[int32, uint16](&f.wide, lo, hi)
	default:
		out.wide = extract[int32, int32](&f.wide, lo, hi)
	}
	return out
}

// extract copies the entries of t's rows [lo, hi) whose columns lie in
// [lo, hi), in their order, into triangles of exactly their size.
func extract[S, D column](t *triangles[S], lo, hi int) triangles[D] {
	nl, nu := 0, 0
	for i := lo; i < hi; i++ {
		cols, _ := t.l.row(i)
		nl += len(cols) - searchCol(cols, lo)
		cols, _ = t.u.row(i)
		nu += searchCol(cols, hi)
	}
	out := triangles[D]{l: newTri[D](hi-lo, nl), u: newTri[D](hi-lo, nu)}
	for i := lo; i < hi; i++ {
		cols, vals := t.l.row(i)
		k := searchCol(cols, lo)
		pushShifted(&out.l, cols[k:], vals[k:], lo)
		out.l.endRow(i - lo)
		cols, vals = t.u.row(i)
		k = searchCol(cols, hi)
		pushShifted(&out.u, cols[:k], vals[:k], lo)
		out.u.endRow(i - lo)
	}
	return out
}

// pushShifted appends a run of entries to t with their columns moved down
// by shift.
func pushShifted[S, D column](t *tri[D], cols []S, vals []float64, shift int) {
	for _, j := range cols {
		t.col = append(t.col, D(int(j)-shift))
	}
	t.val = append(t.val, vals...)
}

// Product multiplies the factors back: returns L·U as a dense matrix.
// Test oracle — for complete factorizations it must reproduce A, and the
// trailing product must reproduce the exact Schur complement.
func (f *LU) Product() *sparse.Dense {
	n := f.N()
	out := sparse.NewDense(n, n)
	var lc, uc []int32
	// addURow adds s times row k of U, pivot included, to row i.
	addURow := func(i, k int, s float64) {
		out.Add(i, k, s*f.Pivot(k))
		var vals []float64
		uc, vals = f.URow(k, uc[:0])
		for t, j := range uc {
			out.Add(i, int(j), s*vals[t])
		}
	}
	for i := 0; i < n; i++ {
		addURow(i, i, 1) // L(i,i) = 1
		var vals []float64
		lc, vals = f.LRow(i, lc[:0])
		for t, k := range lc {
			addURow(i, int(k), vals[t])
		}
	}
	return out
}
