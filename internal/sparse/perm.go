package sparse

import "fmt"

// Perm is a permutation of {0, …, n−1}. p[i] = j means "new position i
// holds old index j", i.e. applying p to a vector x yields y[i] = x[p[i]].
// Its entries are 32-bit, like the matrix indices it permutes.
type Perm []int32

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Inverse returns q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = int32(i)
	}
	return q
}

// IsValid reports whether p is a bijection on {0,…,len(p)−1}.
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// checkVecDims panics unless both vectors cover the permutation's range.
// Permutation entries are computed indices, so a short argument would be
// a silent out-of-bounds access without this guard.
func (p Perm) checkVecDims(op string, ny, nx int) {
	if ny < len(p) || nx < len(p) {
		panic(fmt.Sprintf("sparse: Perm.%s needs vectors of length ≥ %d, got len(y)=%d, len(x)=%d",
			op, len(p), ny, nx))
	}
}

// ApplyVecTo gathers x through the permutation into y.
func (p Perm) ApplyVecTo(y, x []float64) {
	p.checkVecDims("ApplyVecTo", len(y), len(x))
	for i, v := range p {
		y[i] = x[v]
	}
}

// ScatterVecTo scatters x back through the permutation: y[p[i]] = x[i].
// It inverts ApplyVecTo.
func (p Perm) ScatterVecTo(y, x []float64) {
	p.checkVecDims("ScatterVecTo", len(y), len(x))
	for i, v := range p {
		y[v] = x[i]
	}
}

// PermuteSym returns P·A·Pᵀ for the symmetric permutation defined by p:
// entry (i, j) of the result is A(p[i], p[j]). Rows of the result are
// sorted.
func PermuteSym(a *CSR, p Perm) *CSR {
	if a.Rows != a.Cols || len(p) != a.Rows {
		panic(fmt.Sprintf("sparse: PermuteSym needs square matrix and matching perm (A %d×%d, len(p)=%d)",
			a.Rows, a.Cols, len(p)))
	}
	inv := p.Inverse()
	b := NewCSR(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < b.Rows; i++ {
		cols, vals := a.Row(int(p[i]))
		start := len(b.ColIdx)
		for k, j := range cols {
			b.ColIdx = append(b.ColIdx, inv[j])
			b.Val = append(b.Val, vals[k])
		}
		b.EndRow(i)
		SortRow(b.ColIdx[start:], b.Val[start:])
	}
	return b
}

// SortRow sorts one row's cols ascending, moving vals along. Insertion
// sort, allocation-free: rows are short (tens of entries at most in FEM
// matrices).
func SortRow(cols []int32, vals []float64) {
	if len(vals) != len(cols) {
		panic(fmt.Sprintf("sparse: SortRow with %d columns and %d values", len(cols), len(vals)))
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// Extract returns the submatrix A(rows, cols) in CSR form, where rows and
// cols are index lists into A. Entry (i, j) of the result is
// A(rows[i], cols[j]). Columns of A not listed in cols are dropped. The
// result is counted before it is allocated, so it carries no spare
// capacity.
func Extract[I ~int | ~int32](a *CSR, rows, cols []I) *CSR {
	// newCol maps an old column to its new index, or to -1 when it is
	// dropped: an offset when cols is a contiguous ascending range (every
	// block split in this repository), a dense index array otherwise.
	lo, hi := 0, 0
	if len(cols) > 0 {
		lo, hi = int(cols[0]), int(cols[0])+len(cols)
	}
	contiguous := true
	for k, j := range cols {
		if int(j) != lo+k {
			contiguous = false
			break
		}
	}
	var colMap []int
	if !contiguous {
		colMap = make([]int, a.Cols)
		for c := range colMap {
			colMap[c] = -1
		}
		for newJ, oldJ := range cols {
			if oldJ >= 0 && int(oldJ) < a.Cols {
				colMap[oldJ] = newJ
			}
		}
	}
	newCol := func(j int) int {
		if colMap != nil {
			return colMap[j]
		}
		if j >= lo && j < hi {
			return j - lo
		}
		return -1
	}

	nnz := 0
	for _, oldI := range rows {
		cs, _ := a.Row(int(oldI))
		for _, j := range cs {
			if newCol(int(j)) >= 0 {
				nnz++
			}
		}
	}
	b := NewCSR(len(rows), len(cols), nnz)
	for i, oldI := range rows {
		cs, vs := a.Row(int(oldI))
		start := len(b.ColIdx)
		for k, j := range cs {
			if nj := newCol(int(j)); nj >= 0 {
				b.ColIdx = append(b.ColIdx, int32(nj))
				b.Val = append(b.Val, vs[k])
			}
		}
		b.EndRow(i)
		SortRow(b.ColIdx[start:], b.Val[start:])
	}
	return b
}
