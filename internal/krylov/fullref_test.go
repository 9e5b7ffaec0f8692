package krylov

import (
	"math"

	"parapre/internal/obs"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// The solver loops of commit 6ceac6a, verbatim but for their names and the
// lint directives: every solve opens with r = b − A·x whatever x holds,
// a cycle that spends the budget loops once more to form the true residual
// before it returns, and the update that ends a cycle walks x once per
// direction. They are the reference TestZeroGuessBitsMatchFullResidual
// holds the shipped solvers against.

func gmresFullRef(n int, matvec Op, precond Prec, in Inner, b, x []float64, opt Options) Result {
	if opt.Restart <= 0 {
		opt.Restart = 20
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = DefaultOptions().MaxIters
	}
	m := opt.Restart
	nf := float64(n)
	method := "GMRES"
	if opt.Flexible {
		method = "FGMRES"
	}

	// Krylov basis; Z additionally holds the preconditioned vectors for
	// the flexible variant. All temporaries come from the workspace; with
	// none supplied, a per-call one reproduces the old allocation pattern.
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	V := ws.basis(&ws.v, m+1, n)
	var Z [][]float64
	if opt.Flexible && precond != nil {
		Z = ws.basis(&ws.z, m, n)
	}
	H := ws.vec(&ws.h, (m+1)*m) // column-major Hessenberg: H[i+j*(m+1)]
	cs := ws.vec(&ws.cs, m)
	sn := ws.vec(&ws.sn, m)
	g := ws.vec(&ws.g, m+1)
	w := ws.vec(&ws.w, n)
	z := ws.vec(&ws.zVec, n)
	r := ws.vec(&ws.r, n)
	yBuf := ws.vec(&ws.y, m)

	res := Result{}

	totalIters := 0
	var ref float64

	resume := opt.Resume
	if resume != nil {
		if err := resume.check(method, n, m); err != nil {
			res.Err = err
			return res
		}
	}
	justResumed := false
	j0 := 0

	for {
		if resume != nil {
			// Mid-cycle restore: rebuild the recurrence exactly as the
			// interrupted run left it and re-enter the inner loop at J.
			// Only the defined prefixes were captured; everything beyond
			// them is rewritten before it is read (g is the exception and
			// is therefore zeroed first).
			st := resume
			resume = nil
			totalIters = st.Iter
			res.Restarts = st.Restarts
			res.Iterations = totalIters
			ref = st.Ref
			res.Initial = st.Initial
			copy(x, st.X)
			for i := range st.V {
				copy(V[i], st.V[i])
			}
			if Z != nil {
				for i := range st.Z {
					copy(Z[i], st.Z[i])
				}
			}
			copy(H, st.H)
			copy(cs, st.Cs)
			copy(sn, st.Sn)
			for i := range g {
				g[i] = 0
			}
			copy(g, st.G)
			if opt.RecordHistory {
				res.History = append(res.History[:0], st.History...)
			}
			j0 = st.J
			justResumed = true
		} else {
			if totalIters > 0 {
				res.Restarts++
			}
			// r = b − A·x.
			matvec(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			opt.charge(nf)
			beta := dotNorm(in.Dot, r)
			if !finite(beta) {
				res.Breakdown = true
				res.Err = breakdownErr(method, totalIters, "residual norm", beta)
				res.Final = beta
				res.Iterations = totalIters
				return res
			}
			if ref == 0 {
				ref = beta
				res.Initial = beta
				if opt.RecordHistory {
					res.History = append(res.History, beta)
				}
				if opt.Progress != nil {
					opt.Progress(totalIters, beta)
				}
				if beta == 0 {
					res.Converged = true
					res.Final = 0
					return res
				}
			}
			if beta <= opt.Tol*ref {
				res.Converged = true
				res.Final = beta
				return res
			}
			if totalIters >= opt.MaxIters {
				res.Final = beta
				return res
			}

			sparse.ScaleTo(V[0], 1/beta, r)
			opt.charge(nf)
			for i := range g {
				g[i] = 0
			}
			g[0] = beta
			j0 = 0
		}

		j := j0
		stopped := false
		for ; j < m && totalIters < opt.MaxIters; j++ {
			// Cooperative cancellation, polled at the iteration boundary —
			// the same replicated point the checkpoint hook fires at, so in
			// a distributed solve every rank leaves the loop at the same
			// iteration. The iterate is still updated from the columns
			// accumulated so far before returning.
			if opt.Stop != nil && opt.Stop() {
				stopped = true
				break
			}
			if opt.Checkpoint != nil && opt.CheckpointEvery > 0 && totalIters > 0 &&
				totalIters%opt.CheckpointEvery == 0 && !justResumed {
				opt.Checkpoint(captureGMRES(method, n, m, totalIters, res.Restarts, j,
					ref, &res, x, V, Z, H, cs, sn, g))
			}
			justResumed = false
			// w = A·M⁻¹·v_j (right preconditioning).
			vj := V[j]
			if precond != nil {
				if Z != nil {
					precond(Z[j], vj)
					paranoid.CheckFiniteVec("krylov: preconditioned basis vector", Z[j])
					matvec(w, Z[j])
				} else {
					precond(z, vj)
					paranoid.CheckFiniteVec("krylov: preconditioned basis vector", z)
					matvec(w, z)
				}
			} else {
				matvec(w, vj)
			}
			totalIters++

			endOrth := opt.span(obs.KindOrth, "")
			hn := opt.orthogonalize(in, w, V[:j+1], H[j*(m+1):])
			endOrth()
			if !finite(hn) {
				// A NaN anywhere in the new basis vector (poisoned operator
				// or preconditioner) surfaces here; the current iterate is
				// the last restart's and the recurrence is unrecoverable.
				res.Breakdown = true
				res.Err = breakdownErr(method, totalIters, "Arnoldi basis norm", hn)
				res.Final = math.NaN()
				res.Iterations = totalIters
				return res
			}
			H[j+1+j*(m+1)] = hn
			if hn > 0 {
				sparse.ScaleTo(V[j+1], 1/hn, w)
				opt.charge(nf)
			}

			// Apply previous Givens rotations to the new column.
			for i := 0; i < j; i++ {
				hi, hi1 := H[i+j*(m+1)], H[i+1+j*(m+1)]
				H[i+j*(m+1)] = cs[i]*hi + sn[i]*hi1
				H[i+1+j*(m+1)] = -sn[i]*hi + cs[i]*hi1
			}
			// New rotation annihilating H[j+1, j].
			hj, hj1 := H[j+j*(m+1)], H[j+1+j*(m+1)]
			rho := math.Hypot(hj, hj1)
			if rho == 0 {
				// Breakdown: the Krylov space is exhausted. The new column
				// is identically zero after the previous rotations, so it
				// is excluded from the least-squares solve (its diagonal
				// would divide by zero) and the iterate is updated from the
				// columns accumulated so far.
				res.Breakdown = true
				res.Err = breakdownErr(method, totalIters, "Givens rotation magnitude", 0)
				break
			}
			cs[j], sn[j] = hj/rho, hj1/rho
			H[j+j*(m+1)] = rho
			H[j+1+j*(m+1)] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			if opt.RecordHistory {
				res.History = append(res.History, math.Abs(g[j+1]))
			}
			if opt.Progress != nil {
				opt.Progress(totalIters, math.Abs(g[j+1]))
			}

			if math.Abs(g[j+1]) <= opt.Tol*ref {
				j++
				break
			}
			if hn == 0 {
				res.Breakdown = true
				res.Err = breakdownErr(method, totalIters, "Arnoldi basis norm", 0)
				j++
				break
			}
		}

		// Solve the j×j triangular system H·y = g. yBuf is fully written
		// before it is read, so reuse across cycles is safe.
		y := yBuf[:j]
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= H[i+k*(m+1)] * y[k]
			}
			y[i] = s / H[i+i*(m+1)]
		}

		// x += M⁻¹·V·y (plain) or Z·y (flexible).
		if Z != nil {
			for k := 0; k < j; k++ {
				ax(x, y[k], Z[k])
			}
			opt.charge(2 * nf * float64(j))
		} else if precond != nil {
			for i := range w {
				w[i] = 0
			}
			for k := 0; k < j; k++ {
				ax(w, y[k], V[k])
			}
			opt.charge(2 * nf * float64(j))
			precond(z, w)
			sparse.Axpy(1, z, x)
			opt.charge(nf)
		} else {
			for k := 0; k < j; k++ {
				ax(x, y[k], V[k])
			}
			opt.charge(2 * nf * float64(j))
		}
		res.Iterations = totalIters

		if stopped {
			// Canceled at an iteration boundary: x now carries the update
			// from the j columns completed before the stop (j may be zero,
			// leaving x at the last restart's iterate). |g[j]| is the
			// residual estimate of that iterate.
			res.Final = math.Abs(g[j])
			res.Err = canceledErr(method, totalIters)
			return res
		}

		if res.Breakdown {
			// Recompute the true residual and return. A lucky breakdown —
			// the exact solution emerged before the space was exhausted —
			// converges here and is not an error.
			matvec(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			res.Final = dotNorm(in.Dot, r)
			res.Converged = res.Final <= opt.Tol*ref
			if res.Converged {
				res.Err = nil
			}
			return res
		}
	}
}

func cgFullRef(n int, matvec Op, precond Prec, in Inner, b, x []float64, opt Options) Result {
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
		matvec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		opt.charge(nf)
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

// ax is y += a·x, routed through the (possibly parallel) sparse kernel.
func ax(y []float64, a float64, x []float64) {
	sparse.Axpy(a, x, y)
}
