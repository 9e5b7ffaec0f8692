package arms

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/ilu"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// Options configures the multilevel construction.
type Options struct {
	Levels   int     // reduction levels; the paper's Schur 2 uses 2
	MaxGroup int     // group-size cap for the independent sets
	DropTol  float64 // relative drop tolerance for Schur-complement assembly
	ILUT     ilu.ILUTOptions
}

// DefaultOptions matches the two-level ARMS the paper uses.
func DefaultOptions() Options {
	return Options{Levels: 2, MaxGroup: 24, DropTol: 1e-4, ILUT: ilu.DefaultILUT()}
}

// Reduction is one independent-set reduction step: the permuted matrix
// splits as [B F; E C] with exactly block-diagonal B (by
// group-independent-set construction); BlockLU holds the dense
// factorization of each B block and S the (dropped) Schur complement
// C − E·B⁻¹·F that the next level acts on.
type Reduction struct {
	Perm    sparse.Perm // new→old within this level's matrix
	NB      int         // size of the grouped (B) part
	Blocks  [][2]int    // contiguous extent of each group in the new order
	BlockLU []*sparse.LU
	F, E    *sparse.CSR // coupling blocks of the permuted matrix
	S       *sparse.CSR // reduced (Schur) matrix, until TakeS hands it on
}

// TakeS hands the reduced matrix to whatever is built from it — the next
// level, the final factorization, the expanded Schur system — and drops the
// reduction's reference: applying a reduction reads Perm, the group LUs, E
// and F, never S, so a reduction kept for its apply would otherwise pin a
// matrix nothing reads.
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
	for g, ext := range r.Blocks {
		lo, hi := ext[0], ext[1]
		r.BlockLU[g].SolveTo(out[lo:hi], in[lo:hi])
	}
}

// SolveBFlops returns the flop count of one SolveB.
func (r *Reduction) SolveBFlops() float64 {
	var f float64
	for _, ext := range r.Blocks {
		sz := float64(ext[1] - ext[0])
		f += 2 * sz * sz
	}
	return f
}

// Reduce performs a single independent-set reduction of a: it finds a
// group-independent set (groups capped at maxGroup), permutes the grouped
// unknowns first, factors the resulting block-diagonal B exactly, and
// assembles S = C − E·B⁻¹·F with relative drop tolerance dropTol. It
// returns nil (no error) with a nil Reduction when no reduction is
// possible. This is the building block of the multilevel Solver; the
// paper's expanded-Schur preconditioner (Schur 2) chooses its own
// permutation and calls ReducePermuted.
func Reduce(a *sparse.CSR, maxGroup int, dropTol float64) (*Reduction, error) {
	group, ng := GroupIndependentSet(a, maxGroup)
	perm, nB, blocks := IndSetPerm(group, ng)
	if nB == 0 || nB == a.Rows {
		return nil, nil
	}
	red, err := ReducePermuted(a, perm, nB, blocks, dropTol)
	if err != nil {
		return nil, fmt.Errorf("arms: %w", err)
	}
	return red, nil
}

// ReducePermuted performs the reduction of a under a given level
// permutation (new→old): the first nB new unknowns are the grouped ones,
// blocks lists the extent of each group among them — ascending and tiling
// [0, nB), as IndSetPerm returns them — and no entry of a couples two
// different groups. One pass over a splits P·A·Pᵀ = [B F; E C]: the
// diagonal blocks of B go straight into dense storage, F, E and C are
// counted first and allocated at their exact size.
func ReducePermuted(a *sparse.CSR, perm sparse.Perm, nB int, blocks [][2]int, dropTol float64) (*Reduction, error) {
	n := a.Rows
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
		Perm: perm, NB: nB, Blocks: blocks,
		BlockLU: make([]*sparse.LU, len(blocks)),
		F:       sparse.NewCSR(nB, n-nB, nnzF),
		E:       sparse.NewCSR(n-nB, nB, nnzE),
	}
	c := sparse.NewCSR(n-nB, n-nB, nnzC)

	for g, ext := range blocks {
		lo, hi := ext[0], ext[1]
		d := sparse.NewDense(hi-lo, hi-lo)
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
		lu, err := d.Factor()
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		red.BlockLU[g] = lu
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
	red.S = AssembleSchur(c, red.E, red.F, red, dropTol)
	// The products with E and F take their blocked-format verdict now, so
	// that what the reduction holds does not grow on its first apply.
	red.E.AutoBlocked()
	red.F.AutoBlocked()
	return red, nil
}

// Solver is a multilevel ARMS preconditioner for a sequential (subdomain-
// local) matrix.
type Solver struct {
	n      int
	levels []*Reduction
	last   *ilu.LU // ILUT factorization of the final reduced matrix
}

// Scratch holds every level's vectors of one Apply, so that a Solver holds
// none and any number of Applies may run on it at once, each with its own
// Scratch.
type Scratch struct {
	levels []levelScratch
}

// levelScratch is the workspace of one applyLevel: the permuted residual
// (n), then u_B, F·z_C and its correction (nB each) and z_C (n − nB).
type levelScratch struct {
	work, uB, fz, corr, zC []float64
}

// NewScratch returns a Scratch sized for s.
func (s *Solver) NewScratch() *Scratch {
	sc := &Scratch{levels: make([]levelScratch, 0, len(s.levels))}
	dim := s.n
	for _, l := range s.levels {
		buf := make([]float64, 2*dim+2*l.NB)
		sc.levels = append(sc.levels, levelScratch{
			work: buf[:dim],
			uB:   buf[dim : dim+l.NB],
			fz:   buf[dim+l.NB : dim+2*l.NB],
			corr: buf[dim+2*l.NB : dim+3*l.NB],
			zC:   buf[dim+3*l.NB:],
		})
		dim -= l.NB
	}
	return sc
}

// N returns the dimension of the preconditioned matrix.
func (s *Solver) N() int { return s.n }

// SolveFlops estimates the flop count of one Apply, for virtual-time
// accounting.
func (s *Solver) SolveFlops() float64 {
	var f float64
	for _, l := range s.levels {
		f += 2*l.SolveBFlops() + 2*float64(l.E.NNZ()) + 2*float64(l.F.NNZ())
	}
	f += s.last.SolveFlops()
	return f
}

// New builds the ARMS hierarchy for matrix a.
func New(a *sparse.CSR, opt Options) (*Solver, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("arms: non-square %d×%d matrix", a.Rows, a.Cols)
	}
	if opt.Levels < 1 {
		opt.Levels = 1
	}
	if opt.MaxGroup < 1 {
		opt.MaxGroup = DefaultOptions().MaxGroup
	}
	s := &Solver{n: a.Rows}
	cur := a
	for lev := 0; lev < opt.Levels; lev++ {
		red, err := Reduce(cur, opt.MaxGroup, opt.DropTol)
		if err != nil {
			return nil, fmt.Errorf("arms: level %d: %w", lev, err)
		}
		if red == nil {
			// No reduction possible (fully separated or fully grouped):
			// stop stacking levels.
			break
		}
		s.levels = append(s.levels, red)
		cur = red.TakeS()
	}
	lastLU, err := ilu.ILUT(cur, opt.ILUT)
	if err != nil {
		return nil, fmt.Errorf("arms: final level: %w", err)
	}
	s.last = lastLU
	return s, nil
}

// AssembleSchur computes S = C − E·B⁻¹·F with per-row relative dropping,
// using the reduction's exact block-diagonal solves for B⁻¹ (l.Blocks and
// l.BlockLU; the groups' extents ascend and tile the columns of E).
//
// The assembly is row-wise. Per group g the column support of F_g and the
// dense W_g = B_g⁻¹·F_g are computed once. Row i of S is then the merge of
// C's row followed by the contributions −e_ij·W[j,:] for the entries e_ij
// of E's row in ascending j — which, because the groups' extents ascend,
// is group by group: the very sequence a coordinate buffer filled C first
// and then group by group would hold for row i, so sparse.MergeRow sums
// duplicates to the same bits. Entries below dropTol·(mean magnitude of
// the merged row) are then dropped in place, the diagonal always kept.
func AssembleSchur(c, e, f *sparse.CSR, l *Reduction, dropTol float64) *sparse.CSR {
	nc := c.Rows
	if c.Cols != nc || e.Rows != nc || f.Cols != nc || e.Cols != f.Rows {
		panic(fmt.Sprintf("arms: AssembleSchur blocks do not fit: C %d×%d, E %d×%d, F %d×%d",
			c.Rows, c.Cols, e.Rows, e.Cols, f.Rows, f.Cols))
	}

	// Supports, in first-seen order over each group's rows. slot[j] is the
	// position of column j in the current group's support, −1 outside it.
	ng := len(l.Blocks)
	supPtr := make([]int, ng+1)
	wPtr := make([]int, ng+1)
	var supCols []int32
	var maxRHS int // largest block of right-hand sides
	slot := make([]int, nc)
	for j := range slot {
		slot[j] = -1
	}
	for g, ext := range l.Blocks {
		lo, hi := ext[0], ext[1]
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
	// right-hand sides, one support column after the other, solve them
	// together into W_g's own storage and transpose that to row-major
	// through the right-hand sides, which are dead by then.
	w := make([]float64, wPtr[ng])
	groupOf := make([]int, e.Cols)
	for j := range groupOf {
		groupOf[j] = -1
	}
	rhsBuf := make([]float64, maxRHS)
	for g, ext := range l.Blocks {
		lo, hi := ext[0], ext[1]
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
		l.BlockLU[g].SolveManyTo(wg, rhs, len(sup))
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
			row := w[wPtr[g]+(int(j)-l.Blocks[g][0])*len(sup):][:len(sup)]
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
// copied out, and the next one — the next level, the next rank, the next
// session — would allocate and clear the same megabytes again.
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

// Apply computes z = M⁻¹·r through the multilevel hierarchy:
// per level, u_B = B⁻¹r_B; r_C' = r_C − E·u_B; recurse on r_C'; then
// u_B −= B⁻¹·F·z_C, working in sc (from s.NewScratch). z and r must have
// length N(); they may alias.
func (s *Solver) Apply(z, r []float64, sc *Scratch) {
	s.applyLevel(sc, 0, z, r)
}

func (s *Solver) applyLevel(scr *Scratch, lev int, z, r []float64) {
	if lev == len(s.levels) {
		s.last.Solve(z, r)
		return
	}
	l := s.levels[lev]
	n := len(l.Perm)
	sc := &scr.levels[lev]
	// Permute r into work.
	for i, old := range l.Perm {
		sc.work[i] = r[old]
	}
	rB := sc.work[:l.NB]
	rC := sc.work[l.NB:n]

	// u_B = B⁻¹ r_B (exact block solves).
	uB := sc.uB
	l.SolveB(uB, rB)

	// r_C' = r_C − E·u_B.
	l.E.MulVecSub(rC, uB)

	// Recurse.
	zC := sc.zC
	s.applyLevel(scr, lev+1, zC, rC)

	// u_B -= B⁻¹·F·z_C.
	l.F.MulVecTo(sc.fz, zC)
	l.SolveB(sc.corr, sc.fz)
	for i := range uB {
		uB[i] -= sc.corr[i]
	}

	// Un-permute into z.
	for i, old := range l.Perm {
		if i < l.NB {
			z[old] = uB[i]
		} else {
			z[old] = zC[i-l.NB]
		}
	}
}
