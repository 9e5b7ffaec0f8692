package ilu

import (
	"math"
	"sort"

	"parapre/internal/sparse"
)

// ILUTOptions controls the dual-threshold factorization. The paper's ILUT
// subdomain solvers correspond to moderate fill (LFil ≈ 10–30) and a drop
// tolerance around 1e-2…1e-4.
type ILUTOptions struct {
	Tau  float64 // relative drop tolerance; entries < Tau·‖row‖ are dropped
	LFil int     // max kept entries per row in each of the L and U parts (excl. diagonal); <=0 means unlimited
}

// DefaultILUT returns the setting used by the paper-style Block 2 / Schur 1
// subdomain solvers.
func DefaultILUT() ILUTOptions { return ILUTOptions{Tau: 1e-3, LFil: 20} }

// ILUT computes the dual-threshold incomplete factorization of Saad
// (ILUT(τ, lfil)): during the elimination of each row, entries not larger
// than τ·‖row‖ (mean-magnitude row norm) are dropped, and only the LFil
// largest entries are kept in each of the row's L and U parts (the
// diagonal is always kept, and does not count against the U part's LFil).
// Among candidates of equal magnitude at the cut the survivors are the
// ones a descending sort.Slice over the candidates, in the order they
// entered the row, keeps — see selectLargest. With Tau = 0 and LFil ≤ 0 the factorization
// is a complete LU without pivoting.
//
// Each triangle is built with 32-bit columns in a pooled buffer sized from
// the LFil bound (ilutCap, leaseTri) and copied out at its exact length and
// at the width the order picks (keep), so a kept factor holds no spare
// capacity.
func ILUT(a *sparse.CSR, opt ILUTOptions) (*LU, error) {
	const op = "ILUT"
	if a.Rows != a.Cols {
		return nil, badInputErr(op, "non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lfil := opt.LFil
	if lfil <= 0 {
		lfil = n
	}

	if err := checkFits(op, n, 0, 0); err != nil {
		return nil, err
	}
	triCap := ilutCap(n, a.NNZ(), opt.LFil)
	f := &LU{piv: make([]float64, n)}
	l, u := leaseTri(n, triCap), leaseTri(n, triCap)

	w := make([]float64, n)  // scatter workspace
	inRow := make([]bool, n) // membership of w
	lPos := newOrdSet(n)     // active L columns < i
	uCols := make([]int, 0, n)
	procL := make([]int, 0, n) // kept L columns in elimination order
	var selL, selU selector    // selectLargest scratch, reused across rows

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		var rowNorm float64
		uCols = uCols[:0]
		procL = procL[:0]
		first := i // lowest L column of the row
		for k, c := range cols {
			j := int(c)
			w[j] = vals[k]
			inRow[j] = true
			rowNorm += math.Abs(vals[k])
			if j < i {
				lPos.add(j)
				first = min(first, j)
			} else {
				uCols = append(uCols, j)
			}
		}
		// A structurally absent diagonal takes its slot ahead of the fill.
		if !inRow[i] {
			w[i] = 0
			inRow[i] = true
			uCols = append(uCols, i)
		}
		if rowNorm == 0 {
			return nil, zeroPivotErr(op, i)
		}
		rowNorm /= float64(len(cols))
		drop := opt.Tau * rowNorm

		// Eliminate in ascending column order; L fill-in re-enters the
		// set, U fill-in joins uCols. Fill lands only at columns above
		// the pivot row's, above everything popped so far, which is what
		// keeps the pops ascending.
		for k := lPos.pop(first, i); k >= 0; k = lPos.pop(k, i) {
			lik := w[k] / f.piv[k]
			inRow[k] = false
			if math.Abs(lik) <= drop {
				continue
			}
			w[k] = lik
			procL = append(procL, k)
			uc, uv := u.row(k)
			for kj, c := range uc {
				j := int(c)
				delta := lik * uv[kj]
				if inRow[j] {
					w[j] -= delta
					continue
				}
				w[j] = -delta
				inRow[j] = true
				if j < i {
					lPos.add(j)
				} else {
					uCols = append(uCols, j)
				}
			}
		}

		// Select survivors: largest |·| up to lfil in each part, dropping
		// small entries; the pivot always kept.
		lSel := selL.selectLargest(procL, w, drop, lfil, -1)
		uSel := selU.selectLargest(uCols, w, drop, lfil, i)
		sort.Ints(lSel)
		sort.Ints(uSel)
		for _, j := range lSel {
			l.push(j, w[j])
		}
		for _, j := range uSel {
			if j == i {
				f.piv[i] = fixPivot(w[j], rowNorm, &f.PivotFixes)
				continue
			}
			u.push(j, w[j])
		}
		if err := checkFits(op, n, len(l.col), len(u.col)); err != nil {
			return nil, err
		}
		l.endRow(i)
		u.endRow(i)

		// Reset workspace.
		for _, j := range procL {
			inRow[j] = false
			w[j] = 0
		}
		for _, j := range uCols {
			inRow[j] = false
			w[j] = 0
		}
		// Dropped L columns already cleared inRow; their w entries are
		// stale but only reachable via inRow, which is false.
	}
	f.keep(l, u)
	return f, nil
}

// ilutCap is the capacity ILUT starts each triangle of a factor
// with: the dual threshold's own bound of LFil entries per row,
// capped by a multiple of nnz(A) that the paper-style settings stay under
// (a triangle that outgrows it is grown by append).
func ilutCap(n, nnzA, lfil int) int {
	c := 4 * nnzA
	if lfil > 0 && n*lfil < c {
		c = n * lfil
	}
	return c
}

// selector is the scratch of selectLargest, reused across the rows of one
// factorization: kept backs the returned columns, mag holds the copy of
// their magnitudes that the partition reorders.
type selector struct {
	kept []int
	mag  []float64
}

// selectLargest returns up to limit columns of cand with the largest |w|
// values, excluding entries ≤ drop; the column `always` (the diagonal) is
// kept unconditionally and does not count against the limit. The result
// aliases the selector's storage and is in no particular order — both
// callers sort it by column.
//
// The cut is found without sorting: an nth-element partition of the
// magnitudes yields the limit-th largest, t, and every candidate ≥ t is
// kept. That set is the one a descending sort would keep whenever it is
// unique, i.e. unless further candidates equal to t lie beyond the cut.
// Which of a straddling tie's members survive depends on the sort, so that
// case alone runs the descending sort.Slice over the candidates in their
// original order; it is rare (about one selection in two hundred on the
// paper's problems) and the factors stay bit-identical either way.
func (s *selector) selectLargest(cand []int, w []float64, drop float64, limit, always int) []int {
	kept, mag := s.kept[:0], s.mag[:0]
	for _, j := range cand {
		if j == always {
			kept = append(kept, j)
		} else if m := math.Abs(w[j]); m > drop {
			kept = append(kept, j)
			mag = append(mag, m)
		}
	}
	s.kept, s.mag = kept, mag
	total := limit // size of the result when the limit binds
	if always >= 0 {
		total++
	}
	// Fast path: everything fits.
	if len(kept) <= total {
		return kept
	}
	// always, when it is a candidate, has a slot of its own; the others
	// compete for the rest.
	if n := total - (len(kept) - len(mag)); n > 0 {
		t := nthLargest(mag, n-1)
		straddle := false
		for _, m := range mag[n:] {
			//lint:ignore floatcmp a tie is two magnitudes with the same bits
			if m == t {
				straddle = true
				break
			}
		}
		if !straddle {
			n = 0
			for _, j := range kept {
				if j == always || math.Abs(w[j]) >= t {
					kept[n] = j
					n++
				}
			}
			return kept[:n]
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		ja, jb := kept[a], kept[b]
		if ja == always {
			return true
		}
		if jb == always {
			return false
		}
		return math.Abs(w[ja]) > math.Abs(w[jb])
	})
	return kept[:total]
}

// nthLargest returns the element that a descending sort of a would put at
// index k, partially reordering a so that a[:k] ≥ a[k] ≥ a[k+1:]
// (Hoare's selection with a median-of-three pivot). a holds no NaN.
func nthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] ≥ p ≥ a[i:hi+1], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
