package krylov

import "math"

// Workspace pools every temporary a Krylov solve needs — the Krylov
// basis, the Hessenberg column store, Givens scratch, and the residual /
// direction vectors — so repeated solves allocate nothing in steady
// state. The hot consumers are the inner solves of the Schur 1
// preconditioner, which run a short GMRES per outer iteration: without
// pooling, every preconditioner application rebuilt the full basis.
//
// Pass a Workspace via Options.Work. Buffers grow to the largest (n, m)
// seen and are reused verbatim afterwards; solvers fully overwrite every
// value they read, so no clearing happens between solves. A Workspace
// must not be shared by concurrent solves — each solving goroutine owns
// its own (the resilient ladder by construction, the preconditioners by
// leasing one per rank and solve from a pool, dist.Comm.Lease).
type Workspace struct {
	v, z         [][]float64
	h            []float64
	cs, sn, g, y []float64
	w, zVec, r   []float64
	p, ap        []float64 // CG directions

	ops, precs int // see Applied
}

// Applied returns how many times the solves run on this workspace have
// applied their operator and their preconditioner, every residual pass
// included — the one account of an inner solve's work that survives a
// caller who discards the Result, as every preconditioner does.
func (ws *Workspace) Applied() (ops, precs int) { return ws.ops, ws.precs }

// NewWorkspace returns an empty workspace; buffers are sized on first
// use.
// The solver-side nil-Work fallback allocates one of these per solve by
// design; steady-state callers pass a reused Workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// vec returns *buf resliced to length n, growing it if needed.
func (ws *Workspace) vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// basis returns *bufs resliced to count vectors of length n each.
func (ws *Workspace) basis(bufs *[][]float64, count, n int) [][]float64 {
	if cap(*bufs) < count {
		nb := make([][]float64, count)
		copy(nb, *bufs)
		*bufs = nb
	}
	*bufs = (*bufs)[:count]
	for i := range *bufs {
		if cap((*bufs)[i]) < n {
			(*bufs)[i] = make([]float64, n)
		}
		(*bufs)[i] = (*bufs)[i][:n]
	}
	return *bufs
}

// dotNorm is ‖v‖ through the injected inner product, clamping the tiny
// negative values a distributed reduction can produce. A plain function
// (not a per-call closure) so the pooled solvers stay allocation-free.
func dotNorm(dot func(x, y []float64) float64, v []float64) float64 {
	return sqrtNonNeg(dot(v, v))
}

// sqrtNonNeg is √d with the clamp dotNorm documents.
func sqrtNonNeg(d float64) float64 {
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}
