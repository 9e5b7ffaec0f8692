package ilu

import (
	"math"

	"parapre/internal/sparse"
)

// Chol is a zero fill-in incomplete Cholesky factorization A ≈ L·Lᵀ of a
// symmetric positive definite matrix. Unlike the unsymmetric ILU variants
// it is itself symmetric positive definite, which preconditioned CG
// requires.
type Chol struct {
	L  *sparse.CSR // lower triangle, diagonal last in each row
	Lt *sparse.CSR // Lᵀ, for the backward solve
	// Fixes counts diagonal entries that had to be repaired to keep the
	// factorization real (0 for M-matrices / well-behaved SPD input).
	Fixes int
}

// N returns the matrix dimension.
func (c *Chol) N() int { return c.L.Rows }

// SolveFlops returns the cost of one Solve application. The factor L is
// applied twice (L and Lᵀ), so the 2-flops-per-applied-entry convention
// shared with LU.SolveFlops gives 4·NNZ(L). The exact kernel count is
// 4·NNZ(L) − 2n (the diagonal of each sweep is one divide, not a
// multiply-subtract pair); the model keeps the round form for the same
// golden-stability reason as LU.SolveFlops. TestCholSolveFlopsModel pins
// both.
func (c *Chol) SolveFlops() float64 { return 4 * float64(c.L.NNZ()) }

// Solve computes z = L⁻ᵀ·L⁻¹·r by one forward and one backward sweep. z
// and r may alias.
//
//lint:allocfree verified dynamically by TestCholSolveZeroAllocSteadyState
func (c *Chol) Solve(z, r []float64) {
	checkSolveDims("Chol.Solve", c.N(), z, r)
	c.forwardSerial(z, r)
	c.backwardSerial(z)
}

// forwardSerial solves L·z = r (diagonal is the last entry of each row).
func (c *Chol) forwardSerial(z, r []float64) {
	n := c.N()
	rp, ci, vv := c.L.RowPtr, c.L.ColIdx, c.L.Val
	for i := 0; i < n; i++ {
		s := r[i]
		hi := rp[i+1]
		row := vv[rp[i] : hi-1]
		cols := ci[rp[i] : hi-1]
		for k, v := range row {
			s -= v * z[cols[k]]
		}
		z[i] = s / vv[hi-1]
	}
}

// backwardSerial solves Lᵀ·z = z (diagonal is the first entry of each Lt
// row).
func (c *Chol) backwardSerial(z []float64) {
	n := c.N()
	rp, ci, vv := c.Lt.RowPtr, c.Lt.ColIdx, c.Lt.Val
	for i := n - 1; i >= 0; i-- {
		lo := rp[i]
		s := z[i]
		row := vv[lo+1 : rp[i+1]]
		cols := ci[lo+1 : rp[i+1]]
		for k, v := range row {
			s -= v * z[cols[k]]
		}
		z[i] = s / vv[lo]
	}
}

// IC0 computes the zero fill-in incomplete Cholesky factorization: L
// keeps exactly the lower-triangular pattern of a. a must be square with
// a symmetric pattern and positive diagonal; non-positive intermediate
// diagonals are repaired (counted in Fixes).
func IC0(a *sparse.CSR) (*Chol, error) {
	if a.Rows != a.Cols {
		return nil, badInputErr("IC0", "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := sparse.NewCSR(n, n, a.NNZ()/2+n)
	fixes := 0

	// Dense scatter of the current row's computed L values.
	w := make([]float64, n)
	inRow := make([]bool, n)

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		var diagA float64
		// Collect lower-pattern entries of row i.
		start := len(l.ColIdx)
		for k, j := range cols {
			rowNorm += math.Abs(vals[k])
			if int(j) < i {
				l.ColIdx = append(l.ColIdx, j)
				l.Val = append(l.Val, vals[k])
			} else if int(j) == i {
				diagA = vals[k]
			}
		}
		if rowNorm == 0 {
			return nil, zeroPivotErr("IC0", i)
		}
		rowNorm /= float64(len(cols))

		// Compute L[i][j] for j in pattern, in increasing j.
		rowCols := l.ColIdx[start:]
		rowVals := l.Val[start:]
		for t, j := range rowCols {
			// s = A[i][j] − Σ_{k<j} L[i][k]·L[j][k]; iterate row j of L.
			s := rowVals[t]
			jlo, jhi := l.RowPtr[j], l.RowPtr[j+1]
			for k := jlo; k < jhi-1; k++ {
				jk := l.ColIdx[k]
				if inRow[jk] {
					s -= w[jk] * l.Val[k]
				}
			}
			ljj := l.Val[jhi-1]
			lij := s / ljj
			rowVals[t] = lij
			w[j] = lij
			inRow[j] = true
		}
		// Diagonal.
		d := diagA
		for _, j := range rowCols {
			d -= w[j] * w[j]
		}
		if d <= 0 {
			fixes++
			d = pivotRel * rowNorm
			if d <= 0 {
				d = pivotRel
			}
		}
		l.ColIdx = append(l.ColIdx, int32(i))
		l.Val = append(l.Val, math.Sqrt(d))
		l.EndRow(i)

		for _, j := range rowCols {
			inRow[j] = false
			w[j] = 0
		}
	}
	return &Chol{L: l, Lt: l.Transpose(), Fixes: fixes}, nil
}
