package ilu

import (
	"fmt"
	"math"
	"sort"

	"parapre/internal/sparse"
)

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
	for k := 0; k < n; k++ {
		x[p.Perm[k]] = tmp[k]
	}
}

// SolveFlops returns the flop count of one Solve: the factor application
// (see LU.SolveFlops); the permutation scatter moves data but performs no
// arithmetic.
func (p *PivLU) SolveFlops() float64 { return p.LU.SolveFlops() }

// ILUTPOptions extends ILUT with the pivoting tolerance: at step i the
// largest U-part candidate replaces the diagonal when
// |w_max| · PermTol > |w_diag|. PermTol = 0 disables pivoting (plain
// ILUT); the SPARSKIT default is 0.5–1.
type ILUTPOptions struct {
	ILUTOptions
	PermTol float64
}

// ILUTP computes the dual-threshold incomplete factorization with column
// pivoting (Saad's ILUTP). It handles matrices with zero or weak
// diagonals — e.g. strongly convective problems or saddle-point-like
// blocks — where plain ILUT would need pivot fixes.
func ILUTP(a *sparse.CSR, opt ILUTPOptions) (*PivLU, error) {
	if a.Rows != a.Cols {
		return nil, badInputErr("ILUTP", "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lfil := opt.LFil
	if lfil <= 0 {
		lfil = n
	}

	perm := sparse.IdentityPerm(n)  // permuted position → original column
	iperm := sparse.IdentityPerm(n) // original column → permuted position

	if err := checkFits("ILUTP", n, 0, 0); err != nil {
		return nil, err
	}
	triCap := ilutCap(n, a.NNZ(), opt.LFil)
	f := &LU{l: leaseTri(n, triCap), u: leaseTri(n, triCap), piv: make([]float64, n)}
	l, u := &f.l, &f.u
	out := &PivLU{LU: f, Perm: perm}

	// Workspace indexed by ORIGINAL column id; the L-part candidates are
	// kept, and eliminated, by permuted position. Positions below the
	// current row never move again, so perm maps a popped one back.
	w := make([]float64, n)
	inRow := make([]bool, n)
	lPos := newOrdSet(n)
	uCols := make([]int, 0, n)
	procL := make([]int, 0, n) // kept L columns (original ids), elimination order
	var selL, selU selector    // selectLargest scratch, reused across rows

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		uCols = uCols[:0]
		procL = procL[:0]
		first := i // lowest L position of the row
		for k, c := range cols {
			j := int(c)
			w[j] = vals[k]
			inRow[j] = true
			rowNorm += math.Abs(vals[k])
			if pj := iperm[j]; pj < i {
				lPos.add(pj)
				first = min(first, pj)
			} else {
				uCols = append(uCols, j)
			}
		}
		if rowNorm == 0 {
			return nil, zeroPivotErr("ILUTP", i)
		}
		rowNorm /= float64(len(cols))
		drop := opt.Tau * rowNorm

		// k is the pivot row: the smallest remaining permuted position.
		for k := lPos.pop(first, i); k >= 0; k = lPos.pop(k, i) {
			j := perm[k] // original column
			lik := w[j] / f.piv[k]
			inRow[j] = false
			if math.Abs(lik) <= drop {
				continue
			}
			w[j] = lik
			procL = append(procL, j)
			uc, uv := u.row(k)
			for kj, c := range uc {
				jj := int(c) // original column id (remapped later)
				delta := lik * uv[kj]
				if inRow[jj] {
					w[jj] -= delta
					continue
				}
				w[jj] = -delta
				inRow[jj] = true
				if pj := iperm[jj]; pj < i {
					lPos.add(pj)
				} else {
					uCols = append(uCols, jj)
				}
			}
		}

		// Ensure a diagonal candidate exists.
		dcol := perm[i]
		if !inRow[dcol] {
			w[dcol] = 0
			inRow[dcol] = true
			uCols = append(uCols, dcol)
		}

		// Column pivoting: promote the largest U candidate when it beats
		// the current diagonal by the permtol margin.
		if opt.PermTol > 0 {
			best := dcol
			for _, j := range uCols {
				if math.Abs(w[j]) > math.Abs(w[best]) {
					best = j
				}
			}
			if best != dcol && math.Abs(w[best])*opt.PermTol > math.Abs(w[dcol]) {
				pi, pb := iperm[dcol], iperm[best]
				perm[pi], perm[pb] = perm[pb], perm[pi]
				iperm[dcol], iperm[best] = iperm[best], iperm[dcol]
				dcol = best
				out.Swaps++
			}
		}

		lSel := selL.selectLargest(procL, w, drop, lfil, -1)
		uSel := selU.selectLargest(uCols, w, drop, lfil, dcol)
		// Store in permuted order; remap to permuted indices after the
		// factorization completes (iperm still changes for columns ≥ i).
		sort.Slice(lSel, func(x, y int) bool { return iperm[lSel[x]] < iperm[lSel[y]] })
		sort.Slice(uSel, func(x, y int) bool { return iperm[uSel[x]] < iperm[uSel[y]] })
		for _, j := range lSel {
			l.push(j, w[j])
		}
		for _, j := range uSel {
			if j == dcol {
				f.piv[i] = fixPivot(w[j], rowNorm, &f.PivotFixes)
				continue
			}
			u.push(j, w[j])
		}
		if err := checkFits("ILUTP", n, len(l.col), len(u.col)); err != nil {
			return nil, err
		}
		l.endRow(i)
		u.endRow(i)

		for _, j := range procL {
			inRow[j] = false
			w[j] = 0
		}
		for _, j := range uCols {
			inRow[j] = false
			w[j] = 0
		}
	}

	// Remap stored column ids to permuted coordinates — the factor becomes
	// a standard LU in the permuted space. A column left of the pivot at
	// the time its row was stored never moves again, so the L rows are
	// already in ascending order; U rows are re-sorted, because later swaps
	// reorder the columns right of the pivot among themselves.
	for k, j := range l.col {
		l.col[k] = int32(iperm[j])
	}
	for k, j := range u.col {
		u.col[k] = int32(iperm[j])
	}
	for i := 0; i < n; i++ {
		lc, _ := l.row(i)
		uc, uv := u.row(i)
		sparse.SortRow(uc, uv)
		if (len(lc) > 0 && int(lc[len(lc)-1]) >= i) || (len(uc) > 0 && int(uc[0]) <= i) {
			return nil, fmt.Errorf("ilu: ILUTP row %d straddles its pivot after the column remap: %w", i, ErrInternal)
		}
	}
	l.keep()
	u.keep()
	return out, nil
}
