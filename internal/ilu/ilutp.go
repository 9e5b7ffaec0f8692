package ilu

import "parapre/internal/sparse"

// PivLU is an incomplete factorization with column pivoting:
// A·Qᵀ ≈ L·U, where Q is the accumulated column permutation. Solve applies
// the factors and scatters through the permutation.
type PivLU struct {
	LU   *LU
	Perm sparse.Perm // Perm[k] = original column at permuted position k
	// Swaps counts the pivoting swaps performed (0 ⇒ identical to ILUT).
	Swaps int
}

// Solve computes x with A·x = b (approximately): x = Qᵀ·U⁻¹·L⁻¹·b. tmp,
// of length N, holds the pre-permutation solution between the factor
// solve and the scatter; the caller owns it, so that a PivLU holds no
// scratch and concurrent Solves with distinct tmp are safe.
func (p *PivLU) Solve(x, b, tmp []float64) {
	n := p.LU.N()
	checkSolveDims("PivLU.Solve", n, x, b)
	checkSolveDims("PivLU.Solve", n, tmp, b)
	tmp = tmp[:n]
	p.LU.Solve(tmp, b)
	p.Perm.ScatterVecTo(x, tmp)
}

// ILUTPOptions extends ILUT with the pivoting tolerance: at step i the
// largest U-part candidate replaces the diagonal when
// |w_max| · PermTol > |w_diag|. PermTol = 0 disables pivoting; the
// SPARSKIT default is 0.5–1.
type ILUTPOptions struct {
	ILUTOptions
	PermTol float64
}

// ILUTP computes the dual-threshold incomplete factorization with column
// pivoting (Saad's ILUTP). It handles matrices with zero or weak
// diagonals — e.g. strongly convective problems or saddle-point-like
// blocks — where plain ILUT would need pivot fixes. The elimination is
// ILUT's (eliminate) with the pivot test after each row's elimination; a
// structurally absent diagonal takes its slot after the row's fill.
func ILUTP(a *sparse.CSR, opt ILUTPOptions) (*PivLU, error) {
	pv := &pivoting{tol: opt.PermTol}
	f, err := eliminate("ILUTP", a, opt.ILUTOptions, pv)
	if err != nil {
		return nil, err
	}
	return &PivLU{LU: f, Perm: pv.perm, Swaps: pv.swaps}, nil
}
