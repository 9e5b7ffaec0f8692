package krylov

import (
	"errors"
	"math"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/sparse"
)

// SolveCSR runs (F)GMRES on a sequentially stored sparse system, charging
// 2·nnz flops per product. The Schur 1 preconditioner's local B-solves ("a
// few local GMRES iterations preconditioned by ILUT") run the same GMRES
// over B_i read in place from the subdomain matrix, with the same charge.
func SolveCSR(a *sparse.CSR, precond Prec, b, x []float64, opt Options) Result {
	matvec := func(y, xx []float64) {
		a.MulVecTo(y, xx)
		if opt.Compute != nil {
			opt.Compute(2 * float64(a.NNZ()))
		}
	}
	return GMRES(a.Rows, matvec, precond, Seq, b, x, opt)
}

// distOps builds the distributed operator set for system s: the matvec
// performs the interface exchange through dsys.System.MatVec, so
// communication failures and injected payload corruption surface as typed
// errors instead of silent wrong answers. On an exchange failure the
// output vector is poisoned with NaN — the replicated recurrence then
// breaks down identically on every rank at the next norm — and the first
// error is retained for attachment to the Result.
type distOps struct {
	ext  []float64
	xerr error // first exchange/communication failure observed
}

func newDistOps(c *dist.Comm, s *dsys.System) (*distOps, Op, Inner) {
	d := &distOps{ext: make([]float64, s.NLoc()+s.NExt())}
	matvec := func(y, xx []float64) {
		if err := s.MatVec(c, y, xx, d.ext); err != nil {
			if d.xerr == nil {
				d.xerr = err
			}
			for i := range y {
				y[i] = math.NaN()
			}
		}
	}
	in := Inner{
		Dot:     func(u, v []float64) float64 { return s.Dot(c, u, v) },
		AxpyDot: func(a float64, u, v, z []float64) float64 { return s.AxpyDot(c, a, u, v, z) },
	}
	return d, matvec, in
}

// attach folds the recorded communication failure (if any) into the
// solver result: the solve cannot have converged past a poisoned matvec,
// so the typed exchange error joins the breakdown diagnostics.
func (d *distOps) attach(res Result) Result {
	if d.xerr != nil {
		res.Breakdown = true
		res.Err = errors.Join(res.Err, d.xerr)
	}
	return res
}

// Distributed runs (F)GMRES(m) on the distributed system s from rank c:
// the matvec performs the interface exchange, the inner product performs
// the global reduction, and all local vector work is charged to the
// rank's virtual clock. Every rank must call Distributed collectively
// with its own s and x. The solution overwrites x (owned unknowns only).
//
// Exchange failures — typed receive errors, wrong-length neighbor blocks,
// injected NaN corruption — poison the recurrence, which the breakdown
// checks detect within one iteration; Result.Err then wraps both the
// BreakdownError and the underlying dsys.ExchangeError.
func Distributed(c *dist.Comm, s *dsys.System, precond Prec, b, x []float64, opt Options) Result {
	d, matvec, in := newDistOps(c, s)
	if opt.Compute == nil {
		opt.Compute = c.Compute
	}
	wireSpans(c, &opt)
	return d.attach(GMRES(s.NLoc(), matvec, precond, in, b, x, opt))
}

// wireSpans connects the solver's span hook to the rank's observability
// recorder. A single check when tracing is off; an explicit opt.Span set
// by the caller wins.
func wireSpans(c *dist.Comm, opt *Options) {
	if opt.Span != nil || !c.ObsEnabled() {
		return
	}
	opt.Span = func(kind, name string) func() {
		h := c.BeginSpan(kind, name)
		return func() { c.EndSpan(h) }
	}
}

// DistributedCG runs preconditioned CG on the distributed system, used by
// benchmark baselines for the SPD test cases. Exchange failures surface
// exactly as in Distributed.
func DistributedCG(c *dist.Comm, s *dsys.System, precond Prec, b, x []float64, opt Options) Result {
	d, matvec, in := newDistOps(c, s)
	if opt.Compute == nil {
		opt.Compute = c.Compute
	}
	wireSpans(c, &opt)
	return d.attach(CG(s.NLoc(), matvec, precond, in, b, x, opt))
}
