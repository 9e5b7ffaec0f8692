// Package krylov implements the Krylov subspace solvers of the paper:
// restarted GMRES(m), its flexible variant FGMRES(m) (required because the
// Schur-complement preconditioners are themselves inner iterations, i.e.
// the preconditioner changes from step to step), and preconditioned CG
// (used inside the additive-Schwarz subdomain solver of §5.2).
//
// One implementation serves both the sequential subdomain solvers and the
// distributed outer solver: the matrix, the preconditioner and the inner
// product are injected. In the distributed setting the injected matvec
// performs the neighbor exchange and the injected inner product performs
// the all-reduce, so the Hessenberg recurrence below is replicated
// identically on every rank — exactly how distributed GMRES works on a
// real machine.
package krylov

import (
	"math"

	"parapre/internal/obs"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// Op applies an operator: y = A·x. y and x never alias.
type Op func(y, x []float64)

// Prec applies a preconditioner: z = M⁻¹·r. z and r never alias. A nil
// Prec means identity (unpreconditioned).
type Prec func(z, r []float64)

// Inner is the (possibly global) inner product, in the two forms the
// solvers use it. Both fields are required.
type Inner struct {
	// Dot returns xᵀy.
	Dot func(x, y []float64) float64
	// AxpyDot computes y += a·x and returns yᵀz of the updated y; z may
	// be y itself. It must equal the update followed by Dot(y, z) bit for
	// bit — the solvers use it wherever an inner product follows a
	// vector update, so that y is streamed once (see sparse.AxpyDot).
	AxpyDot func(a float64, x, y, z []float64) float64
}

// Seq is the inner product of sequentially stored vectors.
var Seq = Inner{Dot: sparse.Dot, AxpyDot: sparse.AxpyDot}

// UpdateThenDot builds an Inner from a bare inner product by running the
// update and the product as two passes. It defines what a fused AxpyDot
// must reproduce, and serves callers whose inner product has no fused
// form (the sequential mirror of package verify).
func UpdateThenDot(dot func(x, y []float64) float64) Inner {
	return Inner{Dot: dot, AxpyDot: func(a float64, x, y, z []float64) float64 {
		sparse.Axpy(a, x, y)
		return dot(y, z)
	}}
}

// Options configures a solve.
type Options struct {
	Restart  int     // m in GMRES(m); the paper uses 20
	MaxIters int     // cap on total iterations
	Tol      float64 // relative residual reduction; the paper uses 1e-6
	Flexible bool    // FGMRES: store preconditioned basis vectors

	// ZeroGuess is the caller's promise that x is all zero on entry — it
	// cleared x itself. The solver then takes r₀ = b without applying the
	// operator: a linear operator maps zero to +0 in every component (its
	// sums start there), and b − (+0) is b bit for bit, −0 and non-finite
	// entries included, so every iterate is the one the application would
	// have led to, and neither the matvec nor the subtraction is run or
	// charged. It is a promise and not something the solver looks for,
	// because in a distributed solve the skipped application is a halo
	// exchange that every rank must skip together, and one rank's x says
	// nothing about the others'. Only the first residual is covered:
	// restarts apply the operator as always, and a Resume ignores the
	// field. Under -tags paranoid x is checked.
	ZeroGuess bool

	// Compute, when non-nil, is charged with the flop counts of the
	// solver's own vector operations (the injected Op/Prec/Inner charge for
	// themselves). The distributed driver passes dist.Comm.Compute.
	Compute func(flops float64)

	// RecordHistory makes the solver store the (estimated) residual norm
	// after every iteration in Result.History — the paper's Diffpack
	// "convergence monitors".
	RecordHistory bool

	// Stop, when non-nil, is polled once per iteration at the iteration
	// boundary (the same replicated point the checkpoint hook fires at);
	// returning true ends the solve cooperatively with a *CanceledError
	// wrapping ErrCanceled. In a distributed solve the decision must be
	// identical on every rank at the same iteration or the ranks desync
	// inside the next collective — wire Stop through a collective vote
	// (see dist.Comm.VoteStop), never through a bare per-rank flag. Nil
	// (the default) costs a single comparison per iteration and leaves
	// the solve bit-identical to earlier releases.
	Stop func() bool

	// Progress, when non-nil, is invoked after every iteration with the
	// iteration count and the current (estimated) residual norm — the
	// live-streaming counterpart of RecordHistory. The values are exactly
	// the ones History records. The callback runs on the rank goroutine;
	// it must not block for long and must not call back into the solver.
	Progress func(iter int, resid float64)

	// Span, when non-nil, opens an observability span of the given kind
	// (an obs.Kind* constant) and returns its closer. The distributed
	// driver wires this to the rank's dist.Comm span hooks; nil means
	// tracing is off and costs a single comparison per use.
	Span func(kind, name string) func()

	// Work, when non-nil, supplies the pooled solver workspace, making
	// repeated solves allocation-free in steady state (see Workspace for
	// the sharing contract). nil keeps the historical allocate-per-call
	// behavior.
	Work *Workspace

	// Checkpoint, when non-nil together with CheckpointEvery > 0, is
	// called every CheckpointEvery iterations at an iteration boundary
	// with a deep snapshot of the recurrence. In a distributed solve the
	// iteration count is replicated across ranks, so every rank fires the
	// hook at the same logical point — the collection of per-rank
	// snapshots at one iteration is a globally consistent checkpoint. The
	// hook must not mutate the snapshot's slices it shares with no one
	// (they are deep copies) and should hand them to a durable sink (see
	// the ckpt package).
	Checkpoint      func(*State)
	CheckpointEvery int

	// Resume, when non-nil, restores the snapshot and continues the
	// solve mid-recurrence instead of starting from the supplied x. The
	// snapshot must match the solver (method, n, restart length);
	// Result.Err carries a *StateMismatchError otherwise. A resumed run
	// replays the exact arithmetic of the uninterrupted one, so residual
	// histories and iteration counts are bit-identical.
	Resume *State
}

// DefaultOptions mirrors the paper's solver configuration (§4.3):
// (F)GMRES(20) reducing the residual by 1e−6.
func DefaultOptions() Options {
	return Options{Restart: 20, MaxIters: 1000, Tol: 1e-6}
}

// Result reports the outcome of a solve.
type Result struct {
	Iterations int       // matrix-vector products performed
	Restarts   int       // restart cycles begun after the first (GMRES only)
	Converged  bool      // reached Tol before MaxIters
	Initial    float64   // initial residual norm
	Final      float64   // final (estimated) residual norm
	Breakdown  bool      // lucky/unlucky breakdown encountered
	History    []float64 // per-iteration residual norms (with RecordHistory; History[0] is the initial norm)

	// Err is non-nil when the solve ended on a breakdown that did not
	// converge: a NaN/Inf inner product or norm, an annihilated Givens
	// rotation, or (for CG) a non-positive curvature direction. It wraps
	// ErrBreakdown and records the iteration index — see BreakdownError.
	// A lucky breakdown (exact solution found early) leaves Err nil.
	Err error
}

func (o *Options) charge(flops float64) {
	if o.Compute != nil {
		o.Compute(flops)
	}
}

// span opens an observability span through the injected hook; with
// tracing off it returns a shared no-op closer without allocating.
func (o *Options) span(kind, name string) func() {
	if o.Span == nil {
		return noopSpanEnd
	}
	return o.Span(kind, name)
}

func noopSpanEnd() {}

// GMRES solves A·x = b with restarted, right-preconditioned GMRES(m)
// (or FGMRES(m) if opt.Flexible). x holds the initial guess on entry and
// the solution on exit.
func GMRES(n int, matvec Op, precond Prec, in Inner, b, x []float64, opt Options) Result {
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
	zeroStart := opt.ZeroGuess && resume == nil
	if zeroStart {
		checkZeroStart(method, x)
	}

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
			// r = b − A·x, which for the promised zero start is b itself.
			rr := b
			if !zeroStart {
				ws.ops++
				matvec(r, x)
				for i := range r {
					r[i] = b[i] - r[i]
				}
				opt.charge(nf)
				rr = r
			}
			zeroStart = false
			beta := dotNorm(in.Dot, rr)
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

			sparse.ScaleTo(V[0], 1/beta, rr)
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
				ws.precs++
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
			ws.ops++
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

		// x += M⁻¹·V·y (plain) or Z·y (flexible): the j directions are
		// added in one kernel call, straight into x unless the sum has to
		// pass through the preconditioner first.
		dirs, sum := V, x
		throughPrec := Z == nil && precond != nil
		if Z != nil {
			dirs = Z
		} else if throughPrec {
			for i := range w {
				w[i] = 0
			}
			sum = w
		}
		sparse.AxpyMany(y, dirs, sum)
		opt.charge(2 * nf * float64(j))
		if throughPrec {
			ws.precs++
			precond(z, w)
			sparse.Axpy(1, z, x)
			opt.charge(nf)
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
			ws.ops++
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

		if totalIters >= opt.MaxIters && math.Abs(g[j]) > opt.Tol*ref {
			// The budget is spent with the estimate above the tolerance.
			// The next pass would form the true residual of this x only to
			// pick one of two returns, neither of which touches x, so the
			// cycle returns its estimate and saves the application.
			// Restarts is incremented as that pass would have done: what
			// the count reports must not depend on how the solve ended. A
			// tolerance exit does not come here — it is confirmed by the
			// true residual, so Converged is never set from an estimate —
			// and a NaN estimate fails the comparison and takes that pass
			// too.
			res.Restarts++
			res.Final = math.Abs(g[j])
			return res
		}
	}
}

// checkZeroStart is the paranoid half of Options.ZeroGuess: a normal
// build takes the caller's word, a paranoid one reads x.
func checkZeroStart(method string, x []float64) {
	if !paranoid.Enabled {
		return
	}
	for i, v := range x {
		if v != 0 {
			paranoid.Check(false, "krylov: %s was promised a zero start, x[%d] = %v", method, i, v)
		}
	}
}

// orthogonalize removes from w its components along the basis vectors V
// by modified Gram–Schmidt, stores the len(V) coefficients in h and
// returns ‖w‖. Each step is one pass over w: the update that removes
// direction i also returns the next coefficient (after the last
// direction, ‖w‖²). The update is charged before the fused call so that
// the clock sees update, inner product, all-reduce in the order of the
// two-pass form.
func (o *Options) orthogonalize(in Inner, w []float64, V [][]float64, h []float64) float64 {
	nf := float64(len(w))
	last := len(V) - 1
	d := in.Dot(w, V[0])
	for i, v := range V {
		paranoid.CheckFinite("krylov: Gram-Schmidt coefficient", d)
		h[i] = d
		next := w
		if i < last {
			next = V[i+1]
		}
		o.charge(2 * nf)
		d = in.AxpyDot(-d, v, w, next)
	}
	return sqrtNonNeg(d)
}
