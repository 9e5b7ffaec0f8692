package ilu

import (
	"parapre/internal/sparse"
)

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
	sn := n - start
	nnz := 0
	for _, j := range f.M.ColIdx[f.M.RowPtr[start]:] {
		if j >= start {
			nnz++
		}
	}
	m := sparse.NewCSR(sn, sn, nnz)
	diag := make([]int, sn)
	for i := start; i < n; i++ {
		li := i - start
		lo, hi := f.M.RowPtr[i], f.M.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := f.M.ColIdx[k]
			if j < start {
				continue
			}
			if k == f.Diag[i] {
				diag[li] = len(m.ColIdx)
			}
			m.ColIdx = append(m.ColIdx, j-start)
			m.Val = append(m.Val, f.M.Val[k])
		}
		m.RowPtr[li+1] = len(m.ColIdx)
	}
	return &LU{M: m, Diag: diag}, nil
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
	nnz := 0
	for _, j := range f.M.ColIdx[:f.M.RowPtr[end]] {
		if j < end {
			nnz++
		}
	}
	m := sparse.NewCSR(end, end, nnz)
	diag := make([]int, end)
	for i := 0; i < end; i++ {
		lo, hi := f.M.RowPtr[i], f.M.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := f.M.ColIdx[k]
			if j >= end {
				continue
			}
			if k == f.Diag[i] {
				diag[i] = len(m.ColIdx)
			}
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, f.M.Val[k])
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return &LU{M: m, Diag: diag}, nil
}

// Product multiplies the factors back: returns L·U as a dense matrix.
// Test oracle — for complete factorizations it must reproduce A, and the
// trailing product must reproduce the exact Schur complement.
func (f *LU) Product() *sparse.Dense {
	n := f.N()
	out := sparse.NewDense(n, n)
	// L row i: unit diag + entries before Diag[i]; U row k: Diag[k]..end.
	for i := 0; i < n; i++ {
		// Contribution of L(i,i)=1 times U row i.
		for k := f.Diag[i]; k < f.M.RowPtr[i+1]; k++ {
			out.Add(i, f.M.ColIdx[k], f.M.Val[k])
		}
		// Contributions of L(i,kk) times U row kk.
		for k := f.M.RowPtr[i]; k < f.Diag[i]; k++ {
			kk := f.M.ColIdx[k]
			lik := f.M.Val[k]
			for kj := f.Diag[kk]; kj < f.M.RowPtr[kk+1]; kj++ {
				out.Add(i, f.M.ColIdx[kj], lik*f.M.Val[kj])
			}
		}
	}
	return out
}
