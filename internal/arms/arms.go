package arms

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// Reduction is one independent-set reduction step: the permuted matrix
// splits as [B F; E C] with exactly block-diagonal B (by
// group-independent-set construction); B holds its factorization, one
// group after the other, and S the (dropped) Schur complement C − E·B⁻¹·F
// that Schur 2's expanded system is built from.
type Reduction struct {
	Perm sparse.Perm         // new→old over the reduced matrix
	NB   int                 // size of the grouped (B) part
	B    *sparse.BlockDiagLU // the groups' factors, each group contiguous in the new order
	F, E *sparse.CSR         // coupling blocks of the permuted matrix
	S    *sparse.CSR         // reduced (Schur) matrix, until TakeS hands it on
}

// TakeS hands the reduced matrix to the expanded Schur system built from
// it and drops the reduction's reference: applying a reduction reads Perm,
// the group factors, E and F, never S, so a reduction kept for its apply
// would otherwise pin a matrix nothing reads.
func (r *Reduction) TakeS() *sparse.CSR {
	s := r.S
	r.S = nil
	return s
}

// SolveB applies the exact block-diagonal solve out = B⁻¹·in without
// allocating. out and in must not alias — each block's pivot gather reads
// in while out is being written — and no caller passes the same vector
// twice.
func (r *Reduction) SolveB(out, in []float64) {
	paranoid.Check(len(out) == 0 || len(in) == 0 || &out[0] != &in[0], "arms: SolveB output aliases its input")
	r.B.SolveTo(out, in)
}

// SolveBFlops returns the flop count of one SolveB, charged as the dense
// group solves' 2·|g|² each: the envelopes skip only products by zero, and
// the model's count stays the one the goldens were recorded with.
func (r *Reduction) SolveBFlops() float64 {
	var f float64
	for g := 0; g < r.B.Groups(); g++ {
		lo, hi := r.B.Group(g)
		sz := float64(hi - lo)
		f += 2 * sz * sz
	}
	return f
}

// ReducePermuted performs the reduction of a under a given permutation
// (new→old): group g is the new unknowns [start[g], start[g+1]), as
// IndSetPerm returns them, the nB = start[len(start)−1] grouped unknowns
// come first, and no entry of a couples two different groups. One pass
// over a splits P·A·Pᵀ = [B F; E C]: each group's block of B goes straight
// into the dense scratch it is factored in, F, E and C are counted first
// and allocated at their exact size.
func ReducePermuted(a *sparse.CSR, perm sparse.Perm, start []int32, dropTol float64) (*Reduction, error) {
	n, nB := a.Rows, int(start[len(start)-1])
	inv := perm.Inverse()
	var nnzF, nnzE, nnzC int
	for i, old := range perm {
		cols, _ := a.Row(int(old))
		for _, j := range cols {
			switch nj := int(inv[j]); {
			case i < nB && nj >= nB:
				nnzF++
			case i >= nB && nj < nB:
				nnzE++
			case i >= nB:
				nnzC++
			}
		}
	}
	red := &Reduction{
		Perm: perm, NB: nB,
		F: sparse.NewCSR(nB, n-nB, nnzF),
		E: sparse.NewCSR(n-nB, nB, nnzE),
	}
	c := sparse.NewCSR(n-nB, n-nB, nnzC)

	var err error
	red.B, err = sparse.FactorBlockDiag(start, func(g int, d *sparse.Dense) {
		lo, hi := int(start[g]), int(start[g+1])
		for i := lo; i < hi; i++ {
			cols, vals := a.Row(int(perm[i]))
			f0 := len(red.F.ColIdx)
			for k, j := range cols {
				switch nj := int(inv[j]); {
				case nj >= nB:
					red.F.ColIdx = append(red.F.ColIdx, int32(nj-nB))
					red.F.Val = append(red.F.Val, vals[k])
				case nj >= lo && nj < hi:
					d.Set(i-lo, nj-lo, vals[k])
				}
			}
			red.F.EndRow(i)
			sparse.SortRow(red.F.ColIdx[f0:], red.F.Val[f0:])
		}
	})
	if err != nil {
		return nil, err
	}
	for i := nB; i < n; i++ {
		cols, vals := a.Row(int(perm[i]))
		e0, c0 := len(red.E.ColIdx), len(c.ColIdx)
		for k, j := range cols {
			if nj := int(inv[j]); nj < nB {
				red.E.ColIdx = append(red.E.ColIdx, int32(nj))
				red.E.Val = append(red.E.Val, vals[k])
			} else {
				c.ColIdx = append(c.ColIdx, int32(nj-nB))
				c.Val = append(c.Val, vals[k])
			}
		}
		red.E.EndRow(i - nB)
		c.EndRow(i - nB)
		sparse.SortRow(red.E.ColIdx[e0:], red.E.Val[e0:])
		sparse.SortRow(c.ColIdx[c0:], c.Val[c0:])
	}
	red.S = AssembleSchur(c, red.E, red.F, red.B, dropTol)
	// The products with E and F take their blocked-format verdict now, so
	// that what the reduction holds does not grow on its first apply.
	red.E.AutoBlocked()
	red.F.AutoBlocked()
	return red, nil
}

// AssembleSchur computes S = C − E·B⁻¹·F with per-row relative dropping,
// using the exact block-diagonal solves of B's factor b for B⁻¹ (the
// groups' extents ascend and tile the columns of E).
//
// The assembly is row-wise. Per group g the column support of F_g and the
// dense W_g = B_g⁻¹·F_g are computed once. Row i of S is then the merge of
// C's row followed by the contributions −e_ij·W[j,:] for the entries e_ij
// of E's row in ascending j — which, because the groups' extents ascend,
// is group by group: the very sequence a coordinate buffer filled C first
// and then group by group would hold for row i, so sparse.MergeRow sums
// duplicates to the same bits. Entries below dropTol·(mean magnitude of
// the merged row) are then dropped in place, the diagonal always kept.
func AssembleSchur(c, e, f *sparse.CSR, b *sparse.BlockDiagLU, dropTol float64) *sparse.CSR {
	nc := c.Rows
	if c.Cols != nc || e.Rows != nc || f.Cols != nc || e.Cols != f.Rows {
		panic(fmt.Sprintf("arms: AssembleSchur blocks do not fit: C %d×%d, E %d×%d, F %d×%d",
			c.Rows, c.Cols, e.Rows, e.Cols, f.Rows, f.Cols))
	}

	// Supports, in first-seen order over each group's rows. slot[j] is the
	// position of column j in the current group's support, −1 outside it.
	ng := b.Groups()
	supPtr := make([]int, ng+1)
	wPtr := make([]int, ng+1)
	var supCols []int32
	var maxRHS int // largest block of right-hand sides
	slot := make([]int, nc)
	for j := range slot {
		slot[j] = -1
	}
	for g := 0; g < ng; g++ {
		lo, hi := b.Group(g)
		for _, j := range f.ColIdx[f.RowPtr[lo]:f.RowPtr[hi]] {
			if slot[j] < 0 {
				slot[j] = len(supCols) - supPtr[g]
				supCols = append(supCols, j)
			}
		}
		supPtr[g+1] = len(supCols)
		for _, j := range supCols[supPtr[g]:] {
			slot[j] = -1
		}
		need := (hi - lo) * (supPtr[g+1] - supPtr[g])
		wPtr[g+1] = wPtr[g] + need
		maxRHS = max(maxRHS, need)
	}

	// W_g, row-major |g|×|support|: scatter F_g into a dense block of
	// right-hand sides, one support column after the other, solve each
	// into W_g's own storage and transpose that to row-major through the
	// right-hand sides, which are dead by then.
	w := make([]float64, wPtr[ng])
	groupOf := make([]int, e.Cols)
	for j := range groupOf {
		groupOf[j] = -1
	}
	rhsBuf := make([]float64, maxRHS)
	for g := 0; g < ng; g++ {
		lo, hi := b.Group(g)
		sz := hi - lo
		for j := lo; j < hi; j++ {
			groupOf[j] = g
		}
		sup := supCols[supPtr[g]:supPtr[g+1]]
		if len(sup) == 0 {
			continue
		}
		for sc, j := range sup {
			slot[j] = sc
		}
		rhs := rhsBuf[:sz*len(sup)]
		for i := range rhs {
			rhs[i] = 0
		}
		for r := lo; r < hi; r++ {
			cols, vals := f.Row(r)
			for k, j := range cols {
				rhs[slot[j]*sz+r-lo] = vals[k]
			}
		}
		wg := w[wPtr[g]:wPtr[g+1]]
		for sc := range sup {
			b.SolveGroup(g, wg[sc*sz:(sc+1)*sz], rhs[sc*sz:(sc+1)*sz])
		}
		for sc, j := range sup {
			for i, v := range wg[sc*sz : (sc+1)*sz] {
				rhs[i*len(sup)+sc] = v
			}
			slot[j] = -1
		}
		copy(wg, rhs)
	}

	// S is built in pooled buffers — its size is not known before its rows
	// are merged and dropped — and copied out at its exact length.
	sb := schurBufs.Get().(*schurBuf)
	if bound := 2 * c.NNZ(); cap(sb.cols) < bound || cap(sb.vals) < bound {
		sb.cols, sb.vals = make([]int32, 0, bound), make([]float64, 0, bound)
	}
	sCols, sVals, buf := sb.cols[:0], sb.vals[:0], sb.row
	s := sparse.NewCSR(nc, nc, 0)
	for i := 0; i < nc; i++ {
		buf = buf[:0]
		cols, vals := c.Row(i)
		for k, j := range cols {
			buf = append(buf, sparse.Entry{Col: int(j), Val: vals[k]})
		}
		cols, vals = e.Row(i)
		for k, j := range cols {
			g := groupOf[j]
			if g < 0 {
				continue
			}
			sup := supCols[supPtr[g]:supPtr[g+1]]
			if len(sup) == 0 {
				continue
			}
			eij := vals[k]
			lo, _ := b.Group(g)
			row := w[wPtr[g]+(int(j)-lo)*len(sup):][:len(sup)]
			for sc, jj := range sup {
				if v := eij * row[sc]; v != 0 {
					buf = append(buf, sparse.Entry{Col: int(jj), Val: -v})
				}
			}
		}
		start := len(sCols)
		sCols, sVals = sparse.MergeRow(buf, sCols, sVals)
		if dropTol > 0 {
			n := start + dropSmall(i, sCols[start:], sVals[start:], dropTol)
			sCols, sVals = sCols[:n], sVals[:n]
		}
		s.RowPtr[i+1] = int32(len(sCols))
	}
	s.ColIdx = append(make([]int32, 0, len(sCols)), sCols...)
	s.Val = append(make([]float64, 0, len(sVals)), sVals...)
	sb.cols, sb.vals, sb.row = sCols, sVals, buf
	schurBufs.Put(sb)
	s.Validate()
	return s
}

// schurBuf is what one AssembleSchur builds S in: the merged rows, sized
// from a bound, and the contributions to the row under assembly.
type schurBuf struct {
	cols []int32
	vals []float64
	row  []sparse.Entry
}

// schurBufs recycles them: an assembly's buffers are dead once S has been
// copied out, and the next one — the next rank, the next session — would
// allocate and clear the same megabytes again.
var schurBufs = sync.Pool{New: func() any { return new(schurBuf) }}

// dropSmall compacts row i in place, removing the entries that do not
// exceed tol·(mean magnitude of the row) except the diagonal, and returns
// the number kept.
func dropSmall(i int, cols []int32, vals []float64, tol float64) int {
	var norm float64
	for _, v := range vals {
		norm += math.Abs(v)
	}
	if len(vals) > 0 {
		norm /= float64(len(vals))
	}
	thresh := tol * norm
	n := 0
	for k, j := range cols {
		if int(j) == i || math.Abs(vals[k]) > thresh {
			cols[n], vals[n] = j, vals[k]
			n++
		}
	}
	return n
}
