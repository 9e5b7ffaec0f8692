package precond

import (
	"fmt"
	"sync"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/schur"
)

// Schur1Options tunes the Schur 1 preconditioner.
type Schur1Options struct {
	ILUT       ilu.ILUTOptions // subdomain factorization (supplies B̃ and L_S·U_S)
	SchurIters int             // distributed GMRES iterations on the global Schur system
	SchurTol   float64         // early-exit tolerance of the inner Schur solve
	InnerIters int             // local GMRES iterations per B-solve (0 ⇒ one ILUT sweep)
	InnerTol   float64
}

// DefaultSchur1 matches the paper's description: the global Schur system
// is solved by "a few" block-Jacobi preconditioned GMRES iterations; the
// subdomain solver is "a few" local GMRES iterations preconditioned by
// ILUT.
func DefaultSchur1() Schur1Options {
	return Schur1Options{
		ILUT:       ilu.DefaultILUT(),
		SchurIters: 5,
		SchurTol:   1e-2,
		InnerIters: 3,
		InnerTol:   1e-3,
	}
}

// Schur1 implements Algorithm 2.1 of the paper as a preconditioner
// application:
//
//  1. ĝ_i = g_i − E_i·B̃_i⁻¹·f_i
//  2. solve S·y = ĝ approximately (distributed GMRES, block-Jacobi
//     preconditioned by the trailing ILUT factors L_S·U_S)
//  3. u_i = B̃_i⁻¹·(f_i − F_i·y_i)
//
// Both B̃-solves use a few local GMRES iterations preconditioned by the
// leading ILUT factors, and the global Schur operator applies
// S_i = C_i − E_i·B̃_i⁻¹·F_i matrix-free with one ILUT sweep per product.
// B_i, E_i and F_i are read in place from the system's matrix, E_i and F_i
// through the operator's windows.
type Schur1 struct {
	s    *dsys.System
	opts Schur1Options

	bFact   *ilu.LU      // leading factors: ILUT of B_i
	sFact   *ilu.LU      // trailing factors: L_S·U_S ≈ S_i
	b, e, f *dsys.Window // B_i (the inner GMRES matvec), E_i, F_i
	op      *schur.Iface

	// pool recycles the schur1Scratch an Apply works in: each rank
	// leases one for its solve (dist.Comm.Lease) and returns it when the
	// solve ends, so an idle session holds none.
	pool sync.Pool

	dsys.CommErr // first interface-exchange failure of the inner Schur solve
}

// schur1Scratch is what one Apply works in: its vectors, the Krylov
// workspace of the two inner B-solves and the interface solve's Work. Each
// inner solver has a workspace of its own, so the shapes a reused scratch
// holds stay stable and no basis is rebuilt.
type schur1Scratch struct {
	y, gp, fTmp, uTmp []float64
	wsB               krylov.Workspace
	iface             *schur.Work
}

// NewSchur1 builds the Schur 1 preconditioner for this rank's subdomain.
func NewSchur1(s *dsys.System, opts Schur1Options) (*Schur1, error) {
	full, err := ilu.ILUT(s.OwnedBlock(), opts.ILUT)
	if err != nil {
		return nil, fmt.Errorf("precond: Schur 1 rank %d: %w", s.Rank, err)
	}
	bFact, err := ilu.ExtractLeading(full, s.NInt)
	if err != nil {
		return nil, err
	}
	sFact, err := ilu.ExtractTrailing(full, s.NInt)
	if err != nil {
		return nil, err
	}
	op, err := schur.NewImplicit(s, bFact)
	if err != nil {
		return nil, err
	}
	e, f := op.Couplings()
	p := &Schur1{
		s:     s,
		opts:  opts,
		bFact: bFact,
		sFact: sFact,
		b:     s.Window(dsys.PartB),
		e:     e,
		f:     f,
		op:    op,
	}
	p.pool.New = func() any { return p.newScratch() }
	return p, nil
}

func (p *Schur1) newScratch() *schur1Scratch {
	return &schur1Scratch{
		y:     make([]float64, p.s.NIface()),
		gp:    make([]float64, p.s.NIface()),
		fTmp:  make([]float64, p.s.NInt),
		uTmp:  make([]float64, p.s.NInt),
		iface: p.op.NewWork(),
	}
}

// bSolve approximately solves B_i·out = in with a few ILUT-preconditioned
// local GMRES iterations (purely local — no collectives) out of ws.
func (p *Schur1) bSolve(c *dist.Comm, ws *krylov.Workspace, out, in []float64) {
	if p.s.NInt == 0 {
		return
	}
	if p.opts.InnerIters <= 0 {
		p.bFact.Solve(out, in)
		c.Compute(p.bFact.SolveFlops())
		return
	}
	for i := range out {
		out[i] = 0
	}
	krylov.GMRES(p.s.NInt, func(y, x []float64) {
		p.b.MulVecTo(y, x)
		c.Compute(2 * float64(p.b.NNZ()))
	}, func(z, r []float64) {
		p.bFact.Solve(z, r)
		c.Compute(p.bFact.SolveFlops())
	}, krylov.Seq, in, out, krylov.Options{
		ZeroGuess: true,
		Restart:   p.opts.InnerIters,
		MaxIters:  p.opts.InnerIters,
		Tol:       p.opts.InnerTol,
		Compute:   c.Compute,
		Work:      ws,
	})
}

// Apply runs Algorithm 2.1. Must be called collectively.
func (p *Schur1) Apply(c *dist.Comm, z, r []float64) {
	p.apply(c, c.Lease(&p.pool).(*schur1Scratch), z, r)
}

func (p *Schur1) apply(c *dist.Comm, sc *schur1Scratch, z, r []float64) {
	nInt := p.s.NInt
	f := r[:nInt]
	g := r[nInt:]

	// Step 1: ĝ = g − E·B̃⁻¹·f.
	p.bSolve(c, &sc.wsB, sc.uTmp, f)
	copy(sc.gp, g)
	if nInt > 0 {
		p.e.MulVecSub(sc.gp, sc.uTmp)
		c.Compute(2 * float64(p.e.NNZ()))
	}

	// Step 2: a few distributed GMRES iterations on S·y = ĝ,
	// block-Jacobi preconditioned by the trailing factors.
	p.Record(p.op.Solve(c, sc.iface, func(out, x []float64) {
		p.sFact.Solve(out, x)
		c.Compute(p.sFact.SolveFlops())
	}, sc.gp, sc.y, p.opts.SchurIters, p.opts.SchurTol))

	// Step 3: u = B̃⁻¹·(f − F·y).
	if nInt > 0 {
		copy(sc.fTmp, f)
		p.f.MulVecSub(sc.fTmp, sc.y)
		c.Compute(2 * float64(p.f.NNZ()))
		p.bSolve(c, &sc.wsB, sc.uTmp, sc.fTmp)
	}
	copy(z[:nInt], sc.uTmp[:nInt])
	copy(z[nInt:], sc.y)
}

// Name returns the paper's notation for this preconditioner.
func (p *Schur1) Name() string { return string(KindSchur1) }

// SetupFlops estimates the construction cost of this preconditioner for
// virtual-time accounting: one ILUT factorization of the owned block,
// costed as a few sweeps over its factors.
func (p *Schur1) SetupFlops() float64 {
	return 2 * float64(p.bFact.NNZ()+p.sFact.NNZ()+p.b.NNZ()+p.e.NNZ()+p.f.NNZ())
}
