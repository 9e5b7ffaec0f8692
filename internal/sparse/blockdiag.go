package sparse

import (
	"fmt"
	"math"
	"sync"
)

// BlockDiagLU is the LU factorization with partial pivoting of a
// block-diagonal matrix of small dense groups — the B block of an ARMS
// reduction — stored by envelope: row i of a group's packed factor keeps
// its L part from its first nonzero column, its pivot, and its U part up
// to its last nonzero column, every row in one array at its exact length.
// The zeros outside a row's envelope are the dense factor's; a group of a
// finite-element block is a third to a half of its dense entries inside
// the envelopes.
type BlockDiagLU struct {
	start  []int32   // group g spans unknowns [start[g], start[g+1])
	piv    []int32   // row i of a group's factor is row piv[i] of its block, group-local
	rowPtr []int32   // row i's envelope is val[rowPtr[i]:rowPtr[i+1]]
	diag   []int32   // and its pivot val[diag[i]]
	val    []float64 // the envelopes, row after row
}

// FactorBlockDiag factors the block-diagonal matrix whose group g spans
// the unknowns [start[g], start[g+1]) — start ascends from 0 and the
// factor keeps it. fill writes group g's block into d, a zeroed square
// Dense of the group's order; each group is factored there by Dense.Factor's
// elimination, then its rows' envelopes are copied out. An error names the
// first group that is singular to working precision.
func FactorBlockDiag(start []int32, fill func(g int, d *Dense)) (*BlockDiagLU, error) {
	if len(start) == 0 || start[0] != 0 {
		panic(fmt.Sprintf("sparse: FactorBlockDiag needs group starts from 0; got %d starts", len(start)))
	}
	ng := len(start) - 1
	n := int(start[ng])
	maxSz := 0
	for g := 0; g < ng; g++ {
		if start[g+1] < start[g] {
			panic(fmt.Sprintf("sparse: FactorBlockDiag group %d starts at %d and ends at %d", g, start[g], start[g+1]))
		}
		maxSz = max(maxSz, int(start[g+1]-start[g]))
	}
	f := &BlockDiagLU{
		start:  start,
		piv:    make([]int32, n),
		rowPtr: make([]int32, n+1),
		diag:   make([]int32, n),
	}
	eb := envBufs.Get().(*envBuf)
	defer envBufs.Put(eb)
	val := eb.val[:0]
	scratch := make([]float64, maxSz*maxSz)
	d := &Dense{}
	for g := 0; g < ng; g++ {
		lo, hi := int(start[g]), int(start[g+1])
		sz := hi - lo
		d.Rows, d.Cols, d.Data = sz, sz, scratch[:sz*sz]
		clear(d.Data)
		fill(g, d)
		if err := factorInPlace(d.Data, f.piv[lo:hi], sz); err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		for i := 0; i < sz; i++ {
			row := d.Data[i*sz : (i+1)*sz]
			first, last := 0, sz-1
			for first < i && row[first] == 0 {
				first++
			}
			for last > i && row[last] == 0 {
				last--
			}
			f.diag[lo+i] = int32(len(val) + i - first)
			val = append(val, row[first:last+1]...)
			if len(val) > math.MaxInt32 {
				return nil, fmt.Errorf("sparse: block-diagonal factor of more than %d entries", math.MaxInt32)
			}
			f.rowPtr[lo+i+1] = int32(len(val))
		}
	}
	f.val = append(make([]float64, 0, len(val)), val...)
	eb.val = val
	return f, nil
}

// envBuf is what FactorBlockDiag gathers the envelopes in before it knows
// their total length.
type envBuf struct{ val []float64 }

// envBufs recycles it, as arms.AssembleSchur's buffers are: it is dead once
// the envelopes are copied out, and the next reduction would grow the same
// megabytes again.
var envBufs = sync.Pool{New: func() any { return new(envBuf) }}

// Groups returns the number of groups.
func (f *BlockDiagLU) Groups() int { return len(f.start) - 1 }

// Group returns the extent [lo, hi) of group g.
func (f *BlockDiagLU) Group(g int) (lo, hi int) { return int(f.start[g]), int(f.start[g+1]) }

// Order returns the order of the factored matrix.
func (f *BlockDiagLU) Order() int { return int(f.start[len(f.start)-1]) }

// SolveTo solves A·x = b into x without allocating, group by group. x and
// b must not alias (each group's pivot gather reads b while x is written).
func (f *BlockDiagLU) SolveTo(x, b []float64) {
	n := f.Order()
	if len(b) != n || len(x) < n {
		panic(fmt.Sprintf("sparse: BlockDiagLU.SolveTo on order %d needs len(b) = %d, len(x) ≥ %d; got %d, %d",
			n, n, n, len(b), len(x)))
	}
	for g := 0; g < f.Groups(); g++ {
		lo, hi := f.Group(g)
		f.solveGroup(lo, x[lo:hi], b[lo:hi])
	}
}

// SolveGroup solves B_g·x = b for group g alone, x and b group-local and
// not aliased. It panics before writing anything unless len(b) is the
// group's order and x holds at least as many entries.
func (f *BlockDiagLU) SolveGroup(g int, x, b []float64) {
	lo, hi := f.Group(g)
	if sz := hi - lo; len(b) != sz || len(x) < sz {
		panic(fmt.Sprintf("sparse: BlockDiagLU.SolveGroup on group %d of order %d needs len(b) = %d, len(x) ≥ %d; got %d, %d",
			g, sz, sz, sz, len(b), len(x)))
	}
	f.solveGroup(lo, x, b)
}

// solveGroup is LU.SolveTo's pivot gather and two substitutions over each
// row's envelope only, statement for statement: an L sum starts at +0 and
// the products it skips, before its first stored column, are 0·x, which
// leave +0 at +0; a U sum, from +0, is never −0, and the 0·x it skips after
// its last stored column would leave it as it is. So for finite x every
// solution has the dense solve's bits. A non-finite x_j outside row i's
// envelope is the one difference: it no longer reaches x_i through 0·Inf.
func (f *BlockDiagLU) solveGroup(lo int, x, b []float64) {
	piv := f.piv[lo:][:len(b)]
	x = x[:len(b)]
	for i, p := range piv {
		x[i] = b[p]
	}
	rowPtr, diag := f.rowPtr[lo:][:len(x)+1], f.diag[lo:][:len(x)]
	for i := 1; i < len(x); i++ {
		l := f.val[rowPtr[i]:diag[i]]
		xs := x[i-len(l) : i]
		var s float64
		for j, v := range l {
			s += v * xs[j]
		}
		x[i] -= s
	}
	for i := len(x) - 1; i >= 0; i-- {
		d := diag[i]
		u := f.val[d+1 : rowPtr[i+1]]
		xs := x[i+1:][:len(u)]
		var s float64
		for j, v := range u {
			s += v * xs[j]
		}
		x[i] = (x[i] - s) / f.val[d]
	}
}
