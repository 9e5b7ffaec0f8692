package krylov

import (
	"math"

	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// CG solves A·x = b for symmetric positive definite A with preconditioned
// conjugate gradients. x holds the initial guess on entry and the
// solution on exit. The paper uses one FFT-preconditioned CG iteration as
// the additive-Schwarz subdomain solver (§5.2); set MaxIters=1 for that.
func CG(n int, matvec Op, precond Prec, in Inner, b, x []float64, opt Options) Result {
	if opt.MaxIters <= 0 {
		opt.MaxIters = DefaultOptions().MaxIters
	}
	nf := float64(n)
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	r := ws.vec(&ws.r, n)
	z := ws.vec(&ws.zVec, n)
	p := ws.vec(&ws.p, n)
	ap := ws.vec(&ws.ap, n)

	res := Result{}
	it0 := 0
	var rz float64
	justResumed := false
	if st := opt.Resume; st != nil {
		// Mid-solve restore: the CG recurrence at an iteration boundary is
		// exactly (x, r, p, rz) — z is rewritten before it is read.
		if err := st.check("CG", n, 0); err != nil {
			res.Err = err
			return res
		}
		it0 = st.Iter
		res.Iterations = it0
		res.Initial = st.Initial
		copy(x, st.X)
		copy(r, st.R)
		copy(p, st.P)
		rz = st.RZ
		if opt.RecordHistory {
			res.History = append(res.History[:0], st.History...)
			if len(res.History) > 0 {
				res.Final = res.History[len(res.History)-1]
			}
		}
		justResumed = true
	} else {
		if opt.ZeroGuess {
			// r₀ = b − A·0 = b (see Options.ZeroGuess).
			checkZeroStart("CG", x)
			copy(r, b)
		} else {
			ws.ops++
			matvec(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			opt.charge(nf)
		}
		res.Initial = math.Sqrt(math.Max(in.Dot(r, r), 0))
		if !finite(res.Initial) {
			res.Breakdown = true
			res.Err = breakdownErr("CG", 0, "residual norm", res.Initial)
			res.Final = res.Initial
			return res
		}
		res.Final = res.Initial
		if opt.RecordHistory {
			res.History = append(res.History, res.Initial)
		}
		if opt.Progress != nil {
			opt.Progress(0, res.Initial)
		}
		if res.Initial == 0 {
			res.Converged = true
			return res
		}

		if precond != nil {
			ws.precs++
			precond(z, r)
			paranoid.CheckFiniteVec("krylov: CG preconditioned residual", z)
		} else {
			copy(z, r)
		}
		copy(p, z)
		rz = in.Dot(r, z)
		paranoid.CheckFinite("krylov: CG r·z", rz)
	}
	tolAbs := opt.Tol * res.Initial

	for it := it0; it < opt.MaxIters; it++ {
		// Cooperative cancellation at the iteration boundary — the same
		// replicated point the checkpoint hook fires at, so in a
		// distributed solve every rank leaves the loop together. x and
		// res.Final carry the last completed iteration's state.
		if opt.Stop != nil && opt.Stop() {
			res.Err = canceledErr("CG", it)
			return res
		}
		if opt.Checkpoint != nil && opt.CheckpointEvery > 0 && it > 0 &&
			it%opt.CheckpointEvery == 0 && !justResumed {
			opt.Checkpoint(captureCG(n, it, &res, x, r, p, rz))
		}
		justResumed = false
		ws.ops++
		matvec(ap, p)
		pap := in.Dot(p, ap)
		if !finite(pap) || !finite(rz) {
			res.Breakdown = true
			res.Err = breakdownErr("CG", it+1, "curvature p·Ap", pap)
			res.Final = math.NaN()
			res.Iterations = it
			return res
		}
		if pap <= 0 {
			// Not SPD (or breakdown): bail out with the current iterate.
			res.Breakdown = true
			res.Err = breakdownErr("CG", it+1, "curvature p·Ap", pap)
			res.Final = math.Sqrt(math.Max(in.Dot(r, r), 0))
			res.Iterations = it
			return res
		}
		alpha := rz / pap
		sparse.Axpy(alpha, p, x)
		opt.charge(4 * nf)
		res.Iterations = it + 1
		// r −= α·Ap and ‖r‖² in one pass over r.
		rn := math.Sqrt(math.Max(in.AxpyDot(-alpha, ap, r, r), 0))
		res.Final = rn
		if opt.RecordHistory {
			res.History = append(res.History, rn)
		}
		if opt.Progress != nil {
			opt.Progress(it+1, rn)
		}
		if rn <= tolAbs {
			res.Converged = true
			return res
		}
		if precond != nil {
			ws.precs++
			precond(z, r)
			paranoid.CheckFiniteVec("krylov: CG preconditioned residual", z)
		} else {
			copy(z, r)
		}
		rzNew := in.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		opt.charge(2 * nf)
	}
	return res
}
