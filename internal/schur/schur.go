// Package schur implements the distributed Schur-complement machinery of
// the paper's §2: the global interface system (eq. 8)
//
//	S·y = g′,  S = blockdiag(S_i) + offdiag(E_ij),
//
// applied matrix-free across ranks. Each rank contributes its local rows:
// S_i acting on its own interface unknowns (either implicitly through
// C_i − E_i·B_i⁻¹·F_i with an approximate B-solve, or through an
// explicitly assembled local Schur matrix), plus the E_ij couplings to
// neighbors' interface unknowns, refreshed by an interface-level exchange.
package schur

import (
	"fmt"
	"math"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

// Iface is one rank's view of the global interface (Schur) system. The
// interface vector has length N (this rank's share); external values from
// neighbors extend it by the system's NExt slots. It holds no scratch: a
// product or a solve works in the Work its caller passes, so any number of
// them may run on one Iface at once.
type Iface struct {
	sys *dsys.System
	n   int

	// S_i, this rank's diagonal block: assembled (sLoc), or else applied as
	// C_i·x − E_i·(B̃_i⁻¹·(F_i·x)) through bSolve, the blocks read in place
	// from the system's matrix. Fields rather than a closure's captures, so
	// that core.Session.Bytes reaches them.
	sLoc       Local
	c, e, f    *dsys.Window
	bSolve     *ilu.LU
	localFlops float64

	// eExt couples this rank's interdomain interface rows — the last
	// eExt.Rows of the interface vector — to external interface unknowns,
	// in external-buffer order.
	eExt *dsys.Window

	// halo is the system's exchange pattern over the interface vector:
	// the dsys send indices (local subdomain numbering) pre-translated at
	// construction, the receive side landing on Work.ext.
	halo dsys.Halo
}

// Work is what one interface product or solve works in: the inner GMRES's
// Krylov workspace, the external interface values and, for an implicit
// operator, the two vectors of its B̃-solve. One Work must not be shared by
// concurrent products; its vectors are fully overwritten before they are
// read.
type Work struct {
	Krylov     krylov.Workspace
	ext        []float64 // length NExt
	tmpF, tmpB []float64 // length NInt, implicit operators only
}

// NewWork returns a Work sized for o.
func (o *Iface) NewWork() *Work {
	w := &Work{ext: make([]float64, o.sys.NExt())}
	if o.sLoc == nil {
		w.tmpF = make([]float64, o.sys.NInt)
		w.tmpB = make([]float64, o.sys.NInt)
	}
	return w
}

// Local is an assembled diagonal block S_i: a *sparse.CSR, or an
// *ilu.PatternMatrix once S_i has been factored by ILU(0) and is held in
// its factor's pattern.
type Local interface {
	Dims() (rows, cols int)
	NNZ() int
	MulVecTo(y, x []float64)
}

const tagSchur = 200

// NewImplicit builds the Schur 1 style operator: S_i is applied as
// C_i·x − E_i·(B̃_i⁻¹·(F_i·x)), where B̃_i⁻¹ is the supplied approximate
// solve with the internal block (one ILUT backward/forward per
// application). C_i, E_i, F_i and the external couplings are windows onto
// the system's matrix: the operator copies no entry of it.
func NewImplicit(s *dsys.System, bSolve *ilu.LU) (*Iface, error) {
	nI := s.NIface()
	c, e, f := s.Window(dsys.PartC), s.Window(dsys.PartE), s.Window(dsys.PartF)
	op := &Iface{
		sys:        s,
		n:          nI,
		eExt:       s.Window(dsys.PartEExt),
		c:          c,
		e:          e,
		f:          f,
		bSolve:     bSolve,
		localFlops: 2 * float64(c.NNZ()+e.NNZ()+f.NNZ()+bSolve.NNZ()),
	}
	if err := op.buildHalo(tagSchur, func(l int) (int, bool) {
		if l < s.NInt {
			return 0, false
		}
		return l - s.NInt, true
	}); err != nil {
		return nil, err
	}
	return op, nil
}

// NewExplicit builds the operator from an explicitly assembled local
// Schur matrix sLoc (n×n over this rank's interface unknowns). toIface maps
// a dsys local index (≥ NInt) to its interface-vector index; it defines how
// the neighbors' requests are served, and it must put the interdomain
// interface unknowns last, in local order — the rows the external
// couplings, read in place from the system's matrix, are added to. This is
// the form used by the Schur 2 (expanded Schur) preconditioner.
func NewExplicit(s *dsys.System, sLoc Local, toIface func(local int) (int, bool)) (*Iface, error) {
	n, cols := sLoc.Dims()
	if n != cols {
		return nil, fmt.Errorf("schur: explicit local Schur must be square, got %d×%d", n, cols)
	}
	off := n - s.NIface()
	for l := s.NInt; l < s.NLoc(); l++ {
		if ii, ok := toIface(l); !ok || ii != off+l-s.NInt {
			return nil, fmt.Errorf("schur: interdomain interface unknown %d maps to %d, want %d (the last %d of %d, in local order)",
				l, ii, off+l-s.NInt, s.NIface(), n)
		}
	}
	op := &Iface{
		sys:        s,
		n:          n,
		eExt:       s.Window(dsys.PartEExt),
		sLoc:       sLoc,
		localFlops: 2 * float64(sLoc.NNZ()),
	}
	if err := op.buildHalo(tagSchur+1, toIface); err != nil {
		return nil, err
	}
	return op, nil
}

func (o *Iface) buildHalo(tag int, toIface func(int) (int, bool)) error {
	links := o.sys.Links(0)
	for ni, nb := range o.sys.Neigh {
		idx := make([]int32, 0, len(nb.SendIdx))
		for _, l := range nb.SendIdx {
			ii, ok := toIface(int(l))
			if !ok {
				return fmt.Errorf("schur: rank %d: neighbor %d requests local %d, which is not an interface unknown (structurally unsymmetric partition?)",
					o.sys.Rank, nb.Rank, l)
			}
			idx = append(idx, int32(ii))
		}
		links[ni].Send = idx
	}
	o.halo = dsys.Halo{Tag: tag, Links: links}
	o.halo.Seal()
	return nil
}

// applyLocal computes y = S_i·x for this rank's diagonal block.
func (o *Iface) applyLocal(w *Work, y, x []float64) {
	if o.sLoc != nil {
		o.sLoc.MulVecTo(y, x)
		return
	}
	o.c.MulVecTo(y, x)
	if o.sys.NInt > 0 {
		o.f.MulVecTo(w.tmpF, x)
		o.bSolve.Solve(w.tmpB, w.tmpF)
		o.e.MulVecSub(y, w.tmpB)
	}
}

// Couplings returns the windows E_i and F_i an implicit operator reads, for
// a preconditioner that reads them too; nil for an explicit operator.
func (o *Iface) Couplings() (e, f *dsys.Window) { return o.e, o.f }

// N returns the length of this rank's interface vector.
func (o *Iface) N() int { return o.n }

// Exchange refreshes w's external interface values for the interface
// vector x; a failure is a typed *dsys.ExchangeError (see
// dsys.Halo.Exchange). The packing is allocation-free in the steady state,
// verified by TestExchangeSteadyStateAllocs: what is left per round are
// the transport's own payload copies.
func (o *Iface) Exchange(c *dist.Comm, w *Work, x []float64) error {
	return o.halo.Exchange(c, w.ext, x, false)
}

// MatVec computes y = S·x (this rank's rows of the global interface
// product), including the neighbor couplings, working in w. On an exchange
// failure y is left untouched and the typed error is returned.
func (o *Iface) MatVec(c *dist.Comm, w *Work, y, x []float64) error {
	if err := o.Exchange(c, w, x); err != nil {
		return err
	}
	o.applyLocal(w, y, x)
	// Rows above the interdomain ones couple to nothing outside. Adding
	// their empty sums would change no bit: a row sum from +0 is never −0.
	o.eExt.MulVecAdd(y[o.n-o.eExt.Rows:], 1, w.ext)
	c.Compute(o.localFlops + 2*float64(o.eExt.NNZ()))
	return nil
}

// Dot is the global inner product over the distributed interface vectors.
func (o *Iface) Dot(c *dist.Comm, x, y []float64) float64 {
	local := sparse.Dot(x, y)
	c.Compute(2 * float64(o.n))
	return c.AllReduceSum(local)
}

// Inner binds the interface inner product to rank c for the Krylov
// solvers.
func (o *Iface) Inner(c *dist.Comm) krylov.Inner {
	return krylov.Inner{
		Dot:     func(x, y []float64) float64 { return o.Dot(c, x, y) },
		AxpyDot: func(a float64, x, y, z []float64) float64 { return o.AxpyDot(c, a, x, y, z) },
	}
}

// AxpyDot computes y += a·x and returns the global inner product of the
// updated y with z in one pass (see sparse.AxpyDot; z may be y). It
// charges the inner product only — the caller accounts for the update.
func (o *Iface) AxpyDot(c *dist.Comm, a float64, x, y, z []float64) float64 {
	local := sparse.AxpyDot(a, x, y, z)
	c.Compute(2 * float64(o.n))
	return c.AllReduceSum(local)
}

// Solve is step 2 of Algorithm 2.1: from y = 0, at most iters iterations
// of GMRES on the global interface system S·y = g, stopped early at the
// relative residual tol, preconditioned per rank by prec (block Jacobi
// over the ranks) and run out of the caller's w. Collective: every
// rank takes part, one that owns no interface unknown included — its
// peers' reductions wait for it. The first exchange failure is returned;
// the product it hit is flooded with NaN, so the inner and then the outer
// recurrence break down on every rank at their next replicated norm.
func (o *Iface) Solve(c *dist.Comm, w *Work, prec krylov.Prec, g, y []float64, iters int, tol float64) error {
	for i := range y {
		y[i] = 0
	}
	var first error
	krylov.GMRES(o.n,
		func(out, x []float64) {
			if err := o.MatVec(c, w, out, x); err != nil {
				if first == nil {
					first = err
				}
				for i := range out {
					out[i] = math.NaN()
				}
			}
		},
		prec, o.Inner(c), g, y,
		krylov.Options{
			ZeroGuess: true,
			Restart:   iters,
			MaxIters:  iters,
			Tol:       tol,
			Compute:   c.Compute,
			Work:      &w.Krylov,
		})
	return first
}
