package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"parapre/internal/par"
)

// BSR is a sparse matrix in block compressed sparse row format: the
// scalar matrix is tiled into dense BR×BC blocks, and only blocks holding
// at least one stored scalar entry are kept. Vector-valued FEM
// discretizations (elasticity: 2 or 3 unknowns per node) produce fully
// dense small blocks, where BSR wins over CSR by amortizing index loads
// over BR·BC values and keeping the x entries of a block column in
// registers.
//
// Block row bi owns the half-open range RowPtr[bi]:RowPtr[bi+1] of ColIdx
// (block column indices, strictly increasing within a block row) and the
// corresponding blocks of Val; block k occupies
// Val[k·BR·BC : (k+1)·BR·BC], row-major within the block. Positions with
// no stored scalar entry hold an explicit 0.
//
// Determinism: the matvec kernels accumulate each scalar row's terms one
// multiply-subtract at a time in ascending scalar column order — the same
// expression shape and order as the CSR kernels — so a conversion with no
// fill (every block fully dense, the only kind the automatic router
// accepts) is bit-identical to CSR for every input, including non-finite
// values. With fill, the extra 0·x terms are exact zeros for finite x.
type BSR struct {
	Rows, Cols int     // scalar dimensions
	BR, BC     int     // block dimensions; Rows%BR == 0, Cols%BC == 0
	RowPtr     []int32 // the blocks of the CSR it converts, so they fit 32 bits too
	ColIdx     []int32 // block columns; the scalar ones fit 32 bits (see ToBSR)
	Val        []float64

	// rowPart caches the nnz-balanced block-row partition of the parallel
	// kernels, exactly like CSR.rowPart.
	rowPart RowSegments
}

// BlockRows returns the number of block rows.
func (b *BSR) BlockRows() int { return b.Rows / b.BR }

// NNZ returns the number of stored scalar entries (including the explicit
// zeros that pad partially filled blocks).
func (b *BSR) NNZ() int { return len(b.Val) }

// Blocks returns the number of stored blocks.
func (b *BSR) Blocks() int { return len(b.ColIdx) }

// String returns a compact summary.
func (b *BSR) String() string {
	return fmt.Sprintf("BSR{%d×%d, %d×%d blocks, nb=%d}", b.Rows, b.Cols, b.BR, b.BC, b.Blocks())
}

// ToBSR converts a CSR matrix to BSR with the given block shape. The
// scalar dimensions must tile exactly. Block columns are sorted within
// each block row, so the scalar accumulation order of the matvec kernels
// matches CSR's ascending-column order.
func ToBSR(a *CSR, br, bc int) (*BSR, error) {
	if br <= 0 || bc <= 0 {
		//lint:ignore allocfree validation failure of the once-per-shape lazy BSR build, not steady-state
		return nil, fmt.Errorf("sparse: ToBSR block shape %d×%d", br, bc)
	}
	if a.Rows%br != 0 || a.Cols%bc != 0 {
		//lint:ignore allocfree validation failure of the once-per-shape lazy BSR build, not steady-state
		return nil, fmt.Errorf("sparse: ToBSR %d×%d does not tile into %d×%d blocks", a.Rows, a.Cols, br, bc)
	}
	if a.Cols > math.MaxInt32 {
		//lint:ignore allocfree validation failure of the once-per-shape lazy BSR build, not steady-state
		return nil, fmt.Errorf("sparse: ToBSR with %d columns, more than the %d that 32-bit column indices address", a.Cols, math.MaxInt32)
	}
	a.Validate()
	nbr := a.Rows / br
	nbc := a.Cols / bc
	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	b := &BSR{Rows: a.Rows, Cols: a.Cols, BR: br, BC: bc, RowPtr: make([]int32, nbr+1)}

	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	mark := make([]int, nbc)
	for i := range mark {
		mark[i] = -1
	}
	for bi := 0; bi < nbr; bi++ {
		cnt := int32(0)
		for i := bi * br; i < (bi+1)*br; i++ {
			for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
				if bj := int(a.ColIdx[k]) / bc; mark[bj] != bi {
					mark[bj] = bi
					cnt++
				}
			}
		}
		b.RowPtr[bi+1] = b.RowPtr[bi] + cnt
	}
	nb := int(b.RowPtr[nbr])
	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	b.ColIdx = make([]int32, nb)
	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	b.Val = make([]float64, nb*br*bc)

	for i := range mark {
		mark[i] = -1
	}
	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	pos := make([]int, nbc) // block column → block slot, valid while mark[bj] == bi
	//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
	scratch := make([]int, 0, nbc)
	for bi := 0; bi < nbr; bi++ {
		scratch = scratch[:0]
		for i := bi * br; i < (bi+1)*br; i++ {
			for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
				if bj := int(a.ColIdx[k]) / bc; mark[bj] != bi {
					mark[bj] = bi
					//lint:ignore allocfree BSR conversion runs once per matrix shape and is cached behind blocked()
					scratch = append(scratch, bj)
				}
			}
		}
		sort.Ints(scratch)
		base := int(b.RowPtr[bi])
		for t, bj := range scratch {
			b.ColIdx[base+t] = int32(bj)
			pos[bj] = base + t
		}
		for i := bi * br; i < (bi+1)*br; i++ {
			r := i - bi*br
			for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
				j := int(a.ColIdx[k])
				bj := j / bc
				b.Val[pos[bj]*br*bc+r*bc+(j-bj*bc)] = a.Val[k]
			}
		}
	}
	return b, nil
}

// ToCSR converts back to CSR, dropping the explicit zeros that padded
// partially filled blocks: a CSR→BSR→ToCSR round trip reproduces the
// original pattern exactly when the original stored no explicit zeros.
func (b *BSR) ToCSR() *CSR {
	a := NewCSR(b.Rows, b.Cols, b.NNZ())
	br, bc := b.BR, b.BC
	for bi := 0; bi < b.BlockRows(); bi++ {
		for r := 0; r < br; r++ {
			i := bi*br + r
			for k := int(b.RowPtr[bi]); k < int(b.RowPtr[bi+1]); k++ {
				j0 := int(b.ColIdx[k]) * bc
				blk := b.Val[k*br*bc+r*bc : k*br*bc+(r+1)*bc]
				for c, v := range blk {
					if v != 0 {
						a.ColIdx = append(a.ColIdx, int32(j0+c))
						a.Val = append(a.Val, v)
					}
				}
			}
			a.EndRow(i)
		}
	}
	return a
}

// blockFill returns stored-block count for square r×r tiling of a, or -1
// when the dimensions do not tile.
func blockFill(a *CSR, r int) int {
	if a.Rows%r != 0 || a.Cols%r != 0 {
		return -1
	}
	nbr := a.Rows / r
	nbc := a.Cols / r
	//lint:ignore allocfree block-size detection runs once per matrix shape and is cached behind blocked()
	mark := make([]int, nbc)
	for i := range mark {
		mark[i] = -1
	}
	blocks := 0
	for bi := 0; bi < nbr; bi++ {
		for i := bi * r; i < (bi+1)*r; i++ {
			for k := int(a.RowPtr[i]); k < int(a.RowPtr[i+1]); k++ {
				if bj := int(a.ColIdx[k]) / r; bj < nbc && mark[bj] != bi {
					mark[bj] = bi
					blocks++
				}
			}
		}
	}
	return blocks
}

// DetectBlockSize inspects the sparsity pattern for a natural square
// block size r ∈ {4, 3, 2}: the largest candidate whose fill ratio
// (stored block area over scalar nonzeros) stays within maxFill is
// returned; 1 means the pattern has no useful block structure. Vector
// FEM assemblies — every degree of freedom of a node coupling to every
// degree of freedom of its neighbors — score a fill ratio of exactly 1.
func DetectBlockSize(a *CSR, maxFill float64) int {
	nnz := a.NNZ()
	if nnz == 0 {
		return 1
	}
	for _, r := range [...]int{4, 3, 2} {
		blocks := blockFill(a, r)
		if blocks < 0 {
			continue
		}
		if float64(blocks*r*r) <= maxFill*float64(nnz) {
			return r
		}
	}
	return 1
}

// rowPartition mirrors CSR.rowPartition for block rows: segment bounds of
// roughly equal stored-block count.
func (b *BSR) rowPartition(segs int) []int {
	return b.rowPart.Bounds(segs, b.BlockRows(), b.Blocks(), b.blockRowLen)
}

// blockRowLen returns the number of blocks stored in block row bi.
func (b *BSR) blockRowLen(bi int) int { return int(b.RowPtr[bi+1] - b.RowPtr[bi]) }

// mulRange computes y[..] = A[..]·x over the block rows [lo, hi),
// dispatching to the register-blocked kernel for the common shapes.
func (b *BSR) mulRange(y, x []float64, lo, hi int) {
	switch {
	case b.BR == 2 && b.BC == 2:
		b.mul2x2(y, x, lo, hi)
	case b.BR == 3 && b.BC == 3:
		b.mul3x3(y, x, lo, hi)
	default:
		b.mulGeneric(y, x, lo, hi)
	}
}

// The specialized kernels accumulate one multiply-add per statement, in
// ascending scalar column order within each scalar row — the exact
// expression shape of CSR.mulRange, so the compiler applies (or does not
// apply) fused multiply-add identically and results match CSR bit for
// bit. The win is structural: one index load drives BR·BC values, and the
// BC entries of x per block column are loaded once for all BR rows.

func (b *BSR) mul2x2(y, x []float64, lo, hi int) {
	rp, ci, vv := b.RowPtr, b.ColIdx, b.Val
	for bi := lo; bi < hi; bi++ {
		var s0, s1 float64
		for k, end := int(rp[bi]), int(rp[bi+1]); k < end; k++ {
			j := int(ci[k]) * 2
			x0, x1 := x[j], x[j+1]
			blk := vv[k*4 : k*4+4 : k*4+4]
			s0 += blk[0] * x0
			s0 += blk[1] * x1
			s1 += blk[2] * x0
			s1 += blk[3] * x1
		}
		y[bi*2] = s0
		y[bi*2+1] = s1
	}
}

func (b *BSR) mul3x3(y, x []float64, lo, hi int) {
	rp, ci, vv := b.RowPtr, b.ColIdx, b.Val
	for bi := lo; bi < hi; bi++ {
		var s0, s1, s2 float64
		for k, end := int(rp[bi]), int(rp[bi+1]); k < end; k++ {
			j := int(ci[k]) * 3
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			blk := vv[k*9 : k*9+9 : k*9+9]
			s0 += blk[0] * x0
			s0 += blk[1] * x1
			s0 += blk[2] * x2
			s1 += blk[3] * x0
			s1 += blk[4] * x1
			s1 += blk[5] * x2
			s2 += blk[6] * x0
			s2 += blk[7] * x1
			s2 += blk[8] * x2
		}
		y[bi*3] = s0
		y[bi*3+1] = s1
		y[bi*3+2] = s2
	}
}

func (b *BSR) mulGeneric(y, x []float64, lo, hi int) {
	rp, ci, vv := b.RowPtr, b.ColIdx, b.Val
	br, bc := b.BR, b.BC
	for bi := lo; bi < hi; bi++ {
		for r := 0; r < br; r++ {
			var s float64
			for k, end := int(rp[bi]), int(rp[bi+1]); k < end; k++ {
				j := int(ci[k]) * bc
				row := vv[k*br*bc+r*bc : k*br*bc+(r+1)*bc]
				for c, v := range row {
					s += v * x[j+c]
				}
			}
			y[bi*br+r] = s
		}
	}
}

func (b *BSR) checkMulDims(op string, y, x []float64) {
	if len(x) < b.Cols || len(y) < b.Rows {
		panic(fmt.Sprintf("sparse: %s dimension mismatch: A is %d×%d, len(x)=%d, len(y)=%d",
			op, b.Rows, b.Cols, len(x), len(y)))
	}
}

// MulVecTo computes y = A·x without allocating, in parallel over the
// nnz-balanced block-row partition for large matrices. Bit-identical to
// the CSR kernel on fill-free conversions at any worker count.
//
//lint:allocfree steady state once the block-row partition is built; verified dynamically by TestBSRMulVecToZeroAllocSteadyState
func (b *BSR) MulVecTo(y, x []float64) {
	b.checkMulDims("MulVecTo", y, x)
	if w := par.Workers(); w > 1 && b.NNZ() >= ParMinNNZ {
		par.ForSegments(b.rowPartition(w), func(lo, hi int) { b.mulRange(y, x, lo, hi) })
		return
	}
	b.mulRange(y, x, 0, b.BlockRows())
}

// MulVecAdd computes y += alpha · A·x, mirroring CSR.MulVecAdd: each
// scalar row's product is accumulated fully, then folded into y with one
// multiply-add.
func (b *BSR) MulVecAdd(y []float64, alpha float64, x []float64) {
	b.checkMulDims("MulVecAdd", y, x)
	body := func(lo, hi int) {
		br := b.BR
		for bi := lo; bi < hi; bi++ {
			for r := 0; r < br; r++ {
				i := bi*br + r
				s := b.rowDot(bi, r, x)
				y[i] += alpha * s
			}
		}
	}
	if w := par.Workers(); w > 1 && b.NNZ() >= ParMinNNZ {
		par.ForSegments(b.rowPartition(w), body)
		return
	}
	body(0, b.BlockRows())
}

// MulVecSub computes y -= A·x, mirroring CSR.MulVecSub.
func (b *BSR) MulVecSub(y, x []float64) {
	b.checkMulDims("MulVecSub", y, x)
	body := func(lo, hi int) {
		br := b.BR
		for bi := lo; bi < hi; bi++ {
			for r := 0; r < br; r++ {
				i := bi*br + r
				s := b.rowDot(bi, r, x)
				y[i] -= s
			}
		}
	}
	if w := par.Workers(); w > 1 && b.NNZ() >= ParMinNNZ {
		par.ForSegments(b.rowPartition(w), body)
		return
	}
	body(0, b.BlockRows())
}

// rowDot accumulates scalar row (bi·BR + r) · x in ascending column
// order, one multiply-add per stored entry — the CSR accumulation shape.
func (b *BSR) rowDot(bi, r int, x []float64) float64 {
	rp, ci, vv := b.RowPtr, b.ColIdx, b.Val
	br, bc := b.BR, b.BC
	var s float64
	for k, end := int(rp[bi]), int(rp[bi+1]); k < end; k++ {
		j := int(ci[k]) * bc
		row := vv[k*br*bc+r*bc : k*br*bc+(r+1)*bc]
		for c, v := range row {
			s += v * x[j+c]
		}
	}
	return s
}

// Automatic format selection. CSR matvecs consult a per-matrix cache: on
// first use of a large enough matrix the pattern is probed for a natural
// block size with zero fill (the only conversion that is bit-identical
// unconditionally — see the BSR doc comment), and the verdict — a BSR
// twin or a decline — is cached. Mutating CSR methods invalidate the
// cache; callers that write CSR.Val directly around matvecs of the same
// matrix must call InvalidateBlocked afterwards.

// autoBlockOff is set while the tests pin the router off to compare raw
// kernels; the zero value routes.
var autoBlockOff atomic.Bool

// SetAutoBlock enables or disables automatic blocked-format routing for
// all subsequent CSR matvecs and returns the previous setting.
func SetAutoBlock(on bool) bool { return !autoBlockOff.Swap(!on) }

// autoBlockMinNNZ gates detection: probing tiny matrices costs more than
// their matvecs could ever win back.
const autoBlockMinNNZ = 4096

// bsrCache is one detection verdict, tagged with the shape it was made
// for. b == nil records a decline.
type bsrCache struct {
	rows, nnz int
	b         *BSR
}

// blocked returns the BSR twin to route this matvec through, or nil to
// stay on CSR. The verdict is computed once and revalidated against the
// current shape, mirroring rowPartition.
func (a *CSR) blocked() *BSR {
	if autoBlockOff.Load() {
		return nil
	}
	if c := a.bsr.Load(); c != nil && c.rows == a.Rows && c.nnz == a.NNZ() {
		return c.b
	}
	//lint:ignore allocfree block-routing verdict is computed once per matrix shape and cached in bsr
	c := &bsrCache{rows: a.Rows, nnz: a.NNZ()}
	if a.NNZ() >= autoBlockMinNNZ {
		// maxFill 1.0: only fill-free tilings, so routing never changes a
		// single bit of any matvec.
		if r := DetectBlockSize(a, 1.0); r > 1 {
			if b, err := ToBSR(a, r, r); err == nil {
				c.b = b
			}
		}
	}
	a.bsr.Store(c)
	return c.b
}

// AutoBlocked runs (or recalls) blocked-format detection for this matrix
// and returns the BSR twin the matvecs will use, or nil when the matrix
// stays on CSR. dsys calls it at distribution time to move the one-time
// detection cost out of the first solve iteration.
func (a *CSR) AutoBlocked() *BSR { return a.blocked() }

// InvalidateBlocked drops the cached blocked-format verdict. The mutating
// CSR methods call it automatically; it exists for callers that edit Val
// in place between matvecs.
func (a *CSR) InvalidateBlocked() { a.bsr.Store(nil) }
