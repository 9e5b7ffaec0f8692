package precond

import (
	"fmt"
	"sync"

	"parapre/internal/arms"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/schur"
	"parapre/internal/sparse"
)

// Schur2Options tunes the Schur 2 preconditioner.
type Schur2Options struct {
	MaxGroup   int     // group-size cap of the independent sets
	DropTol    float64 // dropping in the expanded Schur assembly
	SchurIters int     // distributed GMRES iterations on the expanded system
	SchurTol   float64
	ILUT       ilu.ILUTOptions // only used if ILU(0) of the expanded Schur fails structurally
}

// DefaultSchur2 matches the paper's description: a two-level ARMS
// reduction supplies the expanded Schur system, which is solved by a few
// distributed GMRES iterations preconditioned by a (local) ILU(0).
func DefaultSchur2() Schur2Options {
	return Schur2Options{
		MaxGroup:   24,
		DropTol:    1e-4,
		SchurIters: 5,
		SchurTol:   1e-2,
		ILUT:       ilu.DefaultILUT(),
	}
}

// Schur2 is the expanded-Schur-complement preconditioner of §2: a
// group-independent-set reordering of each subdomain's internal unknowns
// (the ARMS construction) yields "local interface" unknowns; together with
// the interdomain interface unknowns they form the expanded Schur system,
// which is solved globally by a few GMRES iterations preconditioned by a
// distributed ILU(0) (applied to the local expanded Schur block). The
// ARMS reduction acts as the approximate subdomain solver for the group
// unknowns.
type Schur2 struct {
	s    *dsys.System
	opts Schur2Options

	red   *arms.Reduction // reduction of the whole owned block
	nG    int             // grouped unknowns
	nExp  int             // expanded interface size = NLoc − nG
	perm  sparse.Perm     // owned-local new→old, groups first
	inv   sparse.Perm
	sExp  schur.Local // the expanded Schur block op multiplies by: in sFact's pattern, or the CSR
	sFact *ilu.LU     // ILU(0) (or ILUT fallback) of the expanded Schur block
	op    *schur.Iface

	// pool recycles the schur2Scratch an Apply works in: each rank
	// leases one for its solve (dist.Comm.Lease) and returns it when the
	// solve ends, so an idle session holds none.
	pool sync.Pool

	dsys.CommErr // first interface-exchange failure of the inner Schur solve
}

// NewSchur2 builds the Schur 2 preconditioner for this rank's subdomain.
//
// The reduction is applied to the full owned block with the interdomain
// interface unknowns forced into the separator, so the expanded interface
// is exactly {local interfaces} ∪ {interdomain interfaces} as in the
// paper's Fig. 2.
func NewSchur2(s *dsys.System, opts Schur2Options) (*Schur2, error) {
	red, sExp, err := expandedSchur(s, opts)
	if err != nil {
		return nil, fmt.Errorf("precond: Schur 2 rank %d: %w", s.Rank, err)
	}
	p := &Schur2{s: s, opts: opts, red: red}
	if red == nil {
		// Degenerate subdomain (everything separator): fall back to the
		// identity reduction — the expanded Schur system is the whole
		// owned block.
		p.nG = 0
		p.nExp = s.NLoc()
		p.perm = sparse.IdentityPerm(s.NLoc())
	} else {
		p.nG = red.NB
		p.nExp = s.NLoc() - red.NB
		p.perm = red.Perm
	}
	p.inv = p.perm.Inverse()
	return p.finish(sExp, opts)
}

// expandedSchur returns the reduction of the owned block and the expanded
// Schur block it leaves, taken from it; for a subdomain without groups, a
// nil reduction and the owned block itself.
func expandedSchur(s *dsys.System, opts Schur2Options) (*arms.Reduction, *sparse.CSR, error) {
	owned := s.OwnedBlock()
	red, err := reduceInternalOnly(owned, s.NInt, opts.MaxGroup, opts.DropTol)
	if err != nil || red == nil {
		return nil, owned, err
	}
	return red, red.TakeS(), nil
}

// reduceInternalOnly runs the group-independent-set reduction on the
// owned block, with every interdomain interface unknown (local index ≥
// nInt) pre-assigned to the separator.
func reduceInternalOnly(owned *sparse.CSR, nInt, maxGroup int, dropTol float64) (*arms.Reduction, error) {
	// Mask: restrict grouping to the internal block by grouping the
	// leading principal submatrix and then splicing the interface part
	// back into the separator: the permutation is rebuilt over the owned
	// block and arms.ReducePermuted reduces under it.
	n := owned.Rows
	if nInt == 0 {
		return nil, nil
	}
	idx := make([]int, nInt)
	for i := range idx {
		idx[i] = i
	}
	b := sparse.Extract(owned, idx, idx)
	group, ng := arms.GroupIndependentSet(b, maxGroup)
	permB, nB, start := arms.IndSetPerm(group, ng)
	if nB == 0 {
		return nil, nil
	}
	// Owned-block permutation: grouped internals first, then separator
	// internals, then interface unknowns.
	perm := make(sparse.Perm, 0, n)
	perm = append(perm, permB...)
	for i := nInt; i < n; i++ {
		perm = append(perm, int32(i))
	}
	return arms.ReducePermuted(owned, perm, start, dropTol)
}

func (p *Schur2) finish(sExp *sparse.CSR, opts Schur2Options) (*Schur2, error) {
	s := p.s
	// The "distributed ILU(0)" preconditioner for the global expanded
	// Schur system: ILU(0) of the local expanded Schur block (the pARMS
	// practice). Its factor has S's own pattern, so S is held there once:
	// its values beside the factor's, for the interface product.
	var sLoc schur.Local = sExp
	sFact, err := ilu.ILU0(sExp)
	if err == nil {
		sLoc, err = ilu.HoldInPattern(sFact, sExp)
	} else {
		// The expanded Schur assembly can, after aggressive dropping,
		// lose a diagonal entry; fall back to ILUT which re-creates it,
		// and keep S as it is, its blocked-format verdict taken before the
		// first product.
		sFact, err = ilu.ILUT(sExp, opts.ILUT)
		sExp.AutoBlocked()
	}
	if err != nil {
		return nil, fmt.Errorf("precond: Schur 2 rank %d: %w", s.Rank, err)
	}
	p.sExp, p.sFact = sLoc, sFact

	// The interdomain interface unknowns close the expanded ordering in
	// local order (reduceInternalOnly), as the operator's external
	// couplings need them.
	op, err := schur.NewExplicit(s, sLoc, func(l int) (int, bool) {
		ii := int(p.inv[l]) - p.nG
		if ii < 0 {
			return 0, false
		}
		return ii, true
	})
	if err != nil {
		return nil, err
	}
	p.op = op
	p.pool.New = func() any { return p.newScratch() }
	return p, nil
}

// schur2Scratch is what one Apply works in: the permuted residual, the
// group and expanded-interface vectors and the interface solve's Work.
type schur2Scratch struct {
	work, y, gp, uG, fTmp []float64
	iface                 *schur.Work
}

func (p *Schur2) newScratch() *schur2Scratch {
	return &schur2Scratch{
		work:  make([]float64, p.s.NLoc()),
		y:     make([]float64, p.nExp),
		gp:    make([]float64, p.nExp),
		uG:    make([]float64, p.nG),
		fTmp:  make([]float64, p.nG),
		iface: p.op.NewWork(),
	}
}

// Apply runs the expanded-Schur preconditioner. Must be called
// collectively.
func (p *Schur2) Apply(c *dist.Comm, z, r []float64) {
	p.apply(c, c.Lease(&p.pool).(*schur2Scratch), z, r)
}

func (p *Schur2) apply(c *dist.Comm, sc *schur2Scratch, z, r []float64) {
	// Permute into [groups | expanded interface].
	for i, old := range p.perm {
		sc.work[i] = r[old]
	}
	rG := sc.work[:p.nG]
	rExp := sc.work[p.nG:]

	// Step 1: forward elimination — ĝ = r_exp − E·B⁻¹·r_G.
	copy(sc.gp, rExp)
	if p.red != nil {
		p.red.SolveB(sc.uG, rG)
		c.Compute(p.red.SolveBFlops())
		p.red.E.MulVecSub(sc.gp, sc.uG)
		c.Compute(2 * float64(p.red.E.NNZ()))
	}

	// Step 2: a few distributed GMRES iterations on the global expanded
	// Schur system, preconditioned by the local ILU(0).
	p.Record(p.op.Solve(c, sc.iface, func(out, x []float64) {
		p.sFact.Solve(out, x)
		c.Compute(p.sFact.SolveFlops())
	}, sc.gp, sc.y, p.opts.SchurIters, p.opts.SchurTol))

	// Step 3: back substitution — u_G = B⁻¹·(r_G − F·y).
	if p.red != nil {
		copy(sc.fTmp, rG)
		p.red.F.MulVecSub(sc.fTmp, sc.y)
		c.Compute(2 * float64(p.red.F.NNZ()))
		p.red.SolveB(sc.uG, sc.fTmp)
		c.Compute(p.red.SolveBFlops())
	}

	// Un-permute.
	for i, old := range p.perm {
		if i < p.nG {
			z[old] = sc.uG[i]
		} else {
			z[old] = sc.y[i-p.nG]
		}
	}
}

// Name returns the paper's notation for this preconditioner.
func (p *Schur2) Name() string { return string(KindSchur2) }

// ExpandedSize reports (grouped, expanded-interface) sizes for
// diagnostics: the paper's Fig. 2 distinction between interior, local
// interface and interdomain interface unknowns.
func (p *Schur2) ExpandedSize() (groups, expanded int) { return p.nG, p.nExp }

// SetupFlops estimates the construction cost of this preconditioner: the
// group-block factorizations, charged at the dense |g|³/3 each, plus the
// expanded-Schur assembly and its ILU(0).
func (p *Schur2) SetupFlops() float64 {
	var f float64
	if p.red != nil {
		for g := 0; g < p.red.B.Groups(); g++ {
			lo, hi := p.red.B.Group(g)
			sz := float64(hi - lo)
			f += sz * sz * sz / 3
		}
		f += 2 * float64(p.red.E.NNZ()+p.red.F.NNZ()+p.sExp.NNZ())
	}
	f += 2 * float64(p.sFact.NNZ())
	return f
}
