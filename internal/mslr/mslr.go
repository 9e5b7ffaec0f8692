// Package mslr implements a GeMSLR-style multilevel low-rank Schur
// preconditioner, the recursive extension of the paper's Schur 1 method.
//
// Each rank covers its subdomain with an L-level vertex-separator
// hierarchy built by nested graph bisection (internal/partition): every
// node reorders its rows as [interior₀ | interior₁ | separator], the
// interiors recurse, and the separator's Schur complement inverse is
// approximated as
//
//	S⁻¹ ≈ C̃⁻¹·(I + V·((I−H)⁻¹ − I)·Vᵀ)
//
// where C̃ is an ILUT factorization of the separator block C and the
// rank-k correction captures the dominant eigenspace of the Schur
// residual operator G = I − S·C̃⁻¹, probed matrix-free by a seeded
// Arnoldi pass (H = Vᵀ·G·V). At full rank the correction is exact:
// V(I−H)⁻¹Vᵀ = (S·C̃⁻¹)⁻¹ for square orthonormal V, so the approximation
// collapses to S⁻¹ regardless of the quality of C̃.
//
// Across ranks the preconditioner keeps the Schur 1 shape (Algorithm 2.1
// of the paper): the local B-solves are the hierarchy root solves, and
// the global interface system S·y = ĝ is solved by a few distributed
// GMRES iterations, preconditioned per rank by the same C̃⁻¹ + low-rank
// construction applied to the local interface block.
//
// Setup is purely local and deterministic: the bisection and the Arnoldi
// probes are seeded per node (children derive 2s+1 and 2s+2 from their
// parent's seed s), and every kernel is bit-reproducible under any
// par.SetWorkers value, so solves are bit-identical at any worker count.
package mslr

import (
	"fmt"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/obs"
	"parapre/internal/schur"
	"parapre/internal/sparse"
)

// Options tunes the multilevel low-rank preconditioner.
type Options struct {
	// Levels is the depth of the separator hierarchy: 0 factors the
	// whole interior block with one ILUT (degenerating to Schur 1 with
	// a corrected interface solve), L splits interiors L times.
	Levels int
	// Rank is the maximum rank of each low-rank Schur correction. It is
	// clamped to the separator size; Rank equal to the interface size
	// makes the correction exact. 0 disables the corrections.
	Rank int
	// MinBlock stops the recursion: blocks with at most MinBlock rows
	// are factored directly. Clamped to at least 2.
	MinBlock int
	// ILUT configures every incomplete factorization in the hierarchy
	// (leaf interiors and separator blocks C̃).
	ILUT ilu.ILUTOptions
	// SchurIters and SchurTol bound the distributed GMRES on the global
	// interface system (level 0), exactly as in Schur 1.
	SchurIters int
	SchurTol   float64
	// Seed drives the nested bisection and the Arnoldi probing. Setup is
	// a pure function of (matrix, Options), so any fixed seed gives
	// bit-reproducible solves.
	Seed int64
}

// DefaultOptions mirrors the Schur 1 defaults with a moderate hierarchy:
// three levels, rank-16 corrections, and "a few" distributed interface
// iterations.
func DefaultOptions() Options {
	return Options{
		Levels:     3,
		Rank:       16,
		MinBlock:   32,
		ILUT:       ilu.DefaultILUT(),
		SchurIters: 5,
		SchurTol:   1e-2,
		Seed:       7,
	}
}

// normalized clamps the degenerate knob values.
func (o Options) normalized() Options {
	if o.Levels < 0 {
		o.Levels = 0
	}
	if o.Rank < 0 {
		o.Rank = 0
	}
	if o.MinBlock < 2 {
		o.MinBlock = 2
	}
	if o.SchurIters < 1 {
		o.SchurIters = 1
	}
	return o
}

// Precond is one rank's multilevel low-rank Schur preconditioner. Apply
// must be called collectively (the interface solve communicates), and the
// type satisfies precond.CommErrRecorder so interface-exchange failures
// inside Apply surface as typed, rank-attributed causes instead of
// panics.
type Precond struct {
	s    *dsys.System
	opts Options

	root   *tnode // separator hierarchy over the interior block B
	perm   []int  // hierarchy ordering: perm[i] = B row of position i
	xp, yp []float64

	fBlk  *sparse.CSR // F: interior × interface coupling
	eBlk  *sparse.CSR // E: interface × interior coupling
	cFact *ilu.LU     // C̃ of the local interface block
	lr    *lowRank    // level-0 correction for the local interface block
	op    *schur.Iface

	bFlops float64 // modeled cost of one hierarchy root solve
	setup  float64

	// scratch (Apply is per-rank sequential; never shared)
	y, gp, fTmp, uTmp, corr []float64
	wsS                     *krylov.Workspace

	dsys.CommErr // first interface-exchange failure of the inner Schur solve
}

// New builds the MSLR preconditioner for this rank's subdomain.
func New(s *dsys.System, opts Options) (*Precond, error) {
	opts = opts.normalized()
	p := &Precond{
		s:    s,
		opts: opts,
		y:    make([]float64, s.NIface()),
		gp:   make([]float64, s.NIface()),
		corr: make([]float64, s.NIface()),
		fTmp: make([]float64, s.NInt),
		uTmp: make([]float64, s.NInt),
		wsS:  krylov.NewWorkspace(),
	}

	if s.NInt > 0 {
		root, perm, setupFlops, err := buildTree(s.BlockB(), opts, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("mslr: rank %d interior hierarchy: %w", s.Rank, err)
		}
		p.root, p.perm = root, perm
		p.setup += setupFlops
		p.xp = make([]float64, s.NInt)
		p.yp = make([]float64, s.NInt)
		p.bFlops = root.solveFlops
	}
	p.fBlk = s.BlockF()
	p.eBlk = s.BlockE()

	// A rank without interface unknowns (P = 1, or more ranks than
	// unknowns) gets the order-0 factor and no correction: it still takes
	// part in the collective interface solve.
	cBlk, nI := s.BlockC(), s.NIface()
	cFact, err := ilu.ILUT(cBlk, opts.ILUT)
	if err != nil {
		return nil, fmt.Errorf("mslr: rank %d interface block: %w", s.Rank, err)
	}
	p.cFact = cFact
	p.setup += 2 * float64(cFact.NNZ())

	// Level-0 correction: probe the purely local Schur residual
	// G·x = x − S_loc·C̃⁻¹·x with S_loc·w = C·w − E·B⁻¹·(F·w).
	fBuf := make([]float64, s.NInt)
	uBuf := make([]float64, s.NInt)
	tBuf := make([]float64, nI)
	sBuf := make([]float64, nI)
	gApply := func(dst, x []float64) {
		cFact.Solve(tBuf, x)
		p.fBlk.MulVecTo(fBuf, tBuf)
		p.bSolve(uBuf, fBuf)
		cBlk.MulVecTo(sBuf, tBuf)
		p.eBlk.MulVecAdd(sBuf, -1, uBuf)
		for i := range dst {
			dst[i] = x[i] - sBuf[i]
		}
	}
	if p.lr, err = buildLowRank(nI, opts.Rank, gApply, newRNG(opts.Seed*31+11)); err != nil {
		return nil, fmt.Errorf("mslr: rank %d interface correction: %w", s.Rank, err)
	}
	p.setup += p.lr.buildFlops(nI)

	op, err := schur.NewImplicitOp(s, cBlk, p.eBlk, p.fBlk, p.bSolve, p.bFlops)
	if err != nil {
		return nil, err
	}
	p.op = op
	return p, nil
}

// bSolve applies the hierarchy root solve out = B̃⁻¹·in through the
// separator ordering (purely local — no collectives).
func (p *Precond) bSolve(out, in []float64) {
	if p.root == nil {
		return
	}
	for i, o := range p.perm {
		p.xp[i] = in[o]
	}
	p.root.solve(p.yp, p.xp)
	for i, o := range p.perm {
		out[o] = p.yp[i]
	}
}

// Apply runs Algorithm 2.1 with the hierarchy as the subdomain solver:
//
//  1. ĝ = g − E·B̃⁻¹·f
//  2. solve S·y = ĝ by a few distributed GMRES iterations, each rank
//     preconditioned by its local C̃⁻¹ + low-rank correction
//  3. u = B̃⁻¹·(f − F·y)
//
// Must be called collectively.
func (p *Precond) Apply(c *dist.Comm, z, r []float64) {
	s := p.s
	nInt := s.NInt
	f := r[:nInt]
	g := r[nInt:]

	// Step 1: ĝ = g − E·B̃⁻¹·f.
	p.bSolve(p.uTmp, f)
	c.Compute(p.bFlops)
	copy(p.gp, g)
	if nInt > 0 {
		p.eBlk.MulVecSub(p.gp, p.uTmp)
		c.Compute(2 * float64(p.eBlk.NNZ()))
	}

	// Step 2: distributed GMRES on the global interface system.
	h := c.BeginSpan(obs.KindMSLRSchur, "MSLR")
	p.Record(p.op.Solve(c, func(out, x []float64) {
		p.lr.correct(p.corr, x)
		p.cFact.Solve(out, p.corr)
		c.Compute(p.cFact.SolveFlops() + p.lr.applyFlops(len(x)))
	}, p.gp, p.y, p.opts.SchurIters, p.opts.SchurTol, p.wsS))
	c.EndSpan(h)

	// Step 3: u = B̃⁻¹·(f − F·y).
	if nInt > 0 {
		copy(p.fTmp, f)
		p.fBlk.MulVecSub(p.fTmp, p.y)
		c.Compute(2 * float64(p.fBlk.NNZ()))
		p.bSolve(p.uTmp, p.fTmp)
		c.Compute(p.bFlops)
	}
	copy(z[:nInt], p.uTmp[:nInt])
	copy(z[nInt:], p.y)
}

// Name returns the preconditioner's benchmark label.
func (p *Precond) Name() string { return "MSLR" }

// SetupFlops estimates the construction cost: every factorization sweep
// in the hierarchy plus the Arnoldi probing passes.
func (p *Precond) SetupFlops() float64 {
	if p.setup <= 0 {
		return 1
	}
	return p.setup
}
