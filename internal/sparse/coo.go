package sparse

import (
	"fmt"
	"sort"
	"sync"

	"parapre/internal/par"
)

// COO is a coordinate-format assembly buffer. Finite-element assembly adds
// many small contributions at repeated (i, j) positions; ToCSR sums
// duplicates and produces a normalized CSR matrix.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty r×c assembly buffer with capacity for nnz
// contributions.
func NewCOO(r, c, nnz int) *COO {
	return &COO{
		Rows: r,
		Cols: c,
		I:    make([]int, 0, nnz),
		J:    make([]int, 0, nnz),
		V:    make([]float64, 0, nnz),
	}
}

// Add records the contribution v at position (i, j). Duplicates are summed
// by ToCSR. Add panics on out-of-range indices: an out-of-range assembly
// index is always a programming error in the discretization.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range for %d×%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// Len returns the number of recorded contributions (including duplicates).
func (c *COO) Len() int { return len(c.I) }

// Entry is one (column, value) contribution to a row under assembly.
type Entry struct {
	Col int
	Val float64
}

// MergeRow sorts buf by column and appends the duplicate-summed entries to
// (cols, vals). Duplicates are summed in their post-sort order; since the
// sort and the input sequence are deterministic, so is the result. Both
// the serial and the parallel ToCSR paths normalize every row through this
// one helper, which is what makes them bit-identical — and an assembler
// that builds its rows directly (arms.AssembleSchur) gets ToCSR's bits by
// handing MergeRow each row's contributions in the order COO.Add would
// have received them.
func MergeRow(buf []Entry, cols []int32, vals []float64) ([]int32, []float64) {
	sortEntriesByCol(buf)
	for k := 0; k < len(buf); {
		j := buf[k].Col
		var s float64
		for ; k < len(buf) && buf[k].Col == j; k++ {
			s += buf[k].Val
		}
		cols = append(cols, int32(j))
		vals = append(vals, s)
	}
	return cols, vals
}

// cooParMinTriplets is the buffer size below which ToCSR stays serial.
const cooParMinTriplets = 8192

// ToCSR converts the buffer to CSR, summing duplicate entries.
//
// Contributions are bucketed by row with a counting sort, then each row is
// sorted by column and its duplicates merged. This is O(nnz log rowlen)
// and avoids a global sort of potentially tens of millions of triplets.
// Rows are independent, so large buffers are normalized in parallel over a
// triplet-balanced row partition; the result is bit-identical to the
// serial conversion for every worker count.
func (c *COO) ToCSR() *CSR {
	rowCount := make([]int, c.Rows+1)
	for _, i := range c.I {
		rowCount[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	perm := make([]int, len(c.I))
	next := append([]int(nil), rowCount...)
	for k, i := range c.I {
		perm[next[i]] = k
		next[i]++
	}

	if w := par.Workers(); w > 1 && len(c.I) >= cooParMinTriplets && c.Rows > 1 {
		return c.toCSRParallel(rowCount, perm, w)
	}

	// The merged size is not known before the rows are merged, and what is
	// returned outlives the call by far: the rows are merged into pooled
	// scratch of triplet-count length and copied out at their exact length.
	cb := csrBufs.Get().(*csrBuf)
	if cap(cb.cols) < len(c.I) || cap(cb.vals) < len(c.I) {
		cb.cols, cb.vals = make([]int32, 0, len(c.I)), make([]float64, 0, len(c.I))
	}
	cols, vals, rowBuf := cb.cols[:0], cb.vals[:0], cb.row
	a := NewCSR(c.Rows, c.Cols, 0)
	for i := 0; i < c.Rows; i++ {
		rowBuf = rowBuf[:0]
		for p := rowCount[i]; p < rowCount[i+1]; p++ {
			k := perm[p]
			rowBuf = append(rowBuf, Entry{c.J[k], c.V[k]})
		}
		cols, vals = MergeRow(rowBuf, cols, vals)
		a.RowPtr[i+1] = len(cols)
	}
	a.ColIdx = append(make([]int32, 0, len(cols)), cols...)
	a.Val = append(make([]float64, 0, len(vals)), vals...)
	cb.cols, cb.vals, cb.row = cols, vals, rowBuf
	csrBufs.Put(cb)
	a.Validate()
	return a
}

// csrBuf is the scratch of one serial ToCSR: the merged columns and values
// and the contributions to the row under assembly.
type csrBuf struct {
	cols []int32
	vals []float64
	row  []Entry
}

// csrBufs recycles them: the scratch is dead once the matrix has been
// copied out, and the next assembly would allocate and clear it again.
var csrBufs = sync.Pool{New: func() any { return new(csrBuf) }}

// toCSRParallel is the fan-out tail of ToCSR: rowCount is the prefix-sum
// row bucketing and perm the row-stable triplet permutation. Each worker
// normalizes a contiguous row range (balanced by triplet count) into a
// private buffer; the merged rows are then stitched together with one
// prefix sum and per-segment copies.
func (c *COO) toCSRParallel(rowCount, perm []int, w int) *CSR {
	// Triplet-balanced row boundaries via binary search on the prefix sums.
	bounds := make([]int, w+1)
	for s := 1; s < w; s++ {
		target := int(int64(s) * int64(len(c.I)) / int64(w))
		r := sort.SearchInts(rowCount, target)
		if r > c.Rows {
			r = c.Rows
		}
		if r < bounds[s-1] {
			r = bounds[s-1]
		}
		bounds[s] = r
	}
	bounds[w] = c.Rows

	type segOut struct {
		cols []int32
		vals []float64
	}
	outs := make([]segOut, w)
	rowLen := make([]int, c.Rows) // merged length per row (disjoint writes)
	par.Run(w, func(s int) {
		lo, hi := bounds[s], bounds[s+1]
		if lo >= hi {
			return
		}
		o := segOut{
			cols: make([]int32, 0, rowCount[hi]-rowCount[lo]),
			vals: make([]float64, 0, rowCount[hi]-rowCount[lo]),
		}
		var rowBuf []Entry
		for i := lo; i < hi; i++ {
			rowBuf = rowBuf[:0]
			for p := rowCount[i]; p < rowCount[i+1]; p++ {
				k := perm[p]
				rowBuf = append(rowBuf, Entry{c.J[k], c.V[k]})
			}
			before := len(o.cols)
			o.cols, o.vals = MergeRow(rowBuf, o.cols, o.vals)
			rowLen[i] = len(o.cols) - before
		}
		outs[s] = o
	})

	a := NewCSR(c.Rows, c.Cols, 0)
	for i := 0; i < c.Rows; i++ {
		a.RowPtr[i+1] = a.RowPtr[i] + rowLen[i]
	}
	total := a.RowPtr[c.Rows]
	a.ColIdx = make([]int32, total)
	a.Val = make([]float64, total)
	par.Run(w, func(s int) {
		lo := bounds[s]
		if lo >= bounds[s+1] {
			return
		}
		copy(a.ColIdx[a.RowPtr[lo]:], outs[s].cols)
		copy(a.Val[a.RowPtr[lo]:], outs[s].vals)
	})
	a.Validate()
	return a
}

// FromTriplets builds a CSR matrix directly from parallel triplet slices,
// summing duplicates.
func FromTriplets(rows, cols int, is, js []int, vs []float64) *CSR {
	if len(is) != len(js) || len(js) != len(vs) {
		panic("sparse: FromTriplets slices have different lengths")
	}
	c := &COO{Rows: rows, Cols: cols, I: is, J: js, V: vs}
	return c.ToCSR()
}
