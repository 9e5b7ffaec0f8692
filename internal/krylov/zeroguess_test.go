package krylov

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/paranoid"
)

// zgRun is what one solve of the comparison exposes: the result, the
// iterate, how often the operator, the preconditioner and the inner
// product were applied and, for a distributed solve, the rank's
// accounting.
type zgRun struct {
	res               Result
	x                 []float64
	ops, precs, inner int
	wsOps, wsPrecs    int // the same applications as the workspace counted them
	stats             dist.Stats
}

// zgSolve runs one solve from a zero x: the reference loops of
// fullref_test.go when ref is set, otherwise the shipped solver under the
// zero-start promise. Applications are counted on the way through.
func zgSolve(method string, ref bool, n int, matvec Op, prec Prec, in Inner, b []float64, opt Options) zgRun {
	var run zgRun
	op := func(y, x []float64) { run.ops++; matvec(y, x) }
	var pc Prec
	if prec != nil {
		pc = func(z, r []float64) { run.precs++; prec(z, r) }
	}
	counted := Inner{
		Dot:     func(x, y []float64) float64 { run.inner++; return in.Dot(x, y) },
		AxpyDot: func(a float64, x, y, z []float64) float64 { run.inner++; return in.AxpyDot(a, x, y, z) },
	}
	opt.Flexible = method == "FGMRES"
	opt.RecordHistory = true
	opt.ZeroGuess = !ref
	opt.Work = NewWorkspace()
	run.x = make([]float64, n)
	switch {
	case method == "CG" && ref:
		run.res = cgFullRef(n, op, pc, counted, b, run.x, opt)
	case method == "CG":
		run.res = CG(n, op, pc, counted, b, run.x, opt)
	case ref:
		run.res = gmresFullRef(n, op, pc, counted, b, run.x, opt)
	default:
		run.res = GMRES(n, op, pc, counted, b, run.x, opt)
	}
	run.wsOps, run.wsPrecs = opt.Work.Applied()
	return run
}

// sameBitsOrNaN is sameBits with any two NaNs equal: which operand's
// payload an addition of two NaNs keeps is the compiler's choice, not the
// solver's.
func sameBitsOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// compareZeroGuess demands of got everything the reference produced
// except the work: the iterate bit for bit, the residual history, the
// counts, the initial norm and the outcome; the preconditioner applied as
// often; the operator and the inner product applied exactly savedOps and
// savedInner times less.
func compareZeroGuess(t *testing.T, label string, got, want zgRun, savedOps, savedInner int) {
	t.Helper()
	if !sameBits(got.x, want.x) {
		t.Errorf("%s: iterate differs from the reference", label)
	}
	if !sameBitsOrNaN(got.res.History, want.res.History) {
		t.Errorf("%s: residual history %v, reference %v", label, got.res.History, want.res.History)
	}
	if got.res.Iterations != want.res.Iterations || got.res.Restarts != want.res.Restarts {
		t.Errorf("%s: %d iterations / %d restarts, reference %d / %d", label,
			got.res.Iterations, got.res.Restarts, want.res.Iterations, want.res.Restarts)
	}
	if !sameBitsOrNaN([]float64{got.res.Initial}, []float64{want.res.Initial}) {
		t.Errorf("%s: initial norm %v, reference %v", label, got.res.Initial, want.res.Initial)
	}
	if got.res.Converged != want.res.Converged || got.res.Breakdown != want.res.Breakdown ||
		(got.res.Err == nil) != (want.res.Err == nil) {
		t.Errorf("%s: converged %v, breakdown %v, err %v; reference %v, %v, %v", label,
			got.res.Converged, got.res.Breakdown, got.res.Err,
			want.res.Converged, want.res.Breakdown, want.res.Err)
	}
	if got.wsOps != got.ops || got.wsPrecs != got.precs {
		t.Errorf("%s: the workspace counted %d operator and %d preconditioner applications, the wrappers %d and %d",
			label, got.wsOps, got.wsPrecs, got.ops, got.precs)
	}
	if got.precs != want.precs {
		t.Errorf("%s: %d preconditioner applications, reference %d", label, got.precs, want.precs)
	}
	if want.ops-got.ops != savedOps {
		t.Errorf("%s: %d operator applications against the reference's %d, want %d fewer", label, got.ops, want.ops, savedOps)
	}
	if want.inner-got.inner != savedInner {
		t.Errorf("%s: %d inner products against the reference's %d, want %d fewer", label, got.inner, want.inner, savedInner)
	}
}

// tolBetween returns the relative tolerance the estimate first meets at
// iteration k of the recorded history: halfway, geometrically, between the
// estimates after k−1 and after k iterations.
func tolBetween(t *testing.T, hist []float64, k int) float64 {
	t.Helper()
	if k < 1 || k >= len(hist) || !(hist[k] < hist[k-1]) {
		t.Fatalf("history %v does not fall strictly at iteration %d", hist, k)
	}
	return math.Sqrt(hist[k]*hist[k-1]) / hist[0]
}

// zgScenario is one way a solve from zero can end. tolAt > 0 sets the
// tolerance the estimate first meets at that iteration; the saved counts
// say how many operator applications and inner products the shipped GMRES
// must run less than the reference (CG never forms a closing residual: it
// saves the opening application and nothing else).
type zgScenario struct {
	name              string
	restart, maxIters int
	tol               float64
	tolAt             int
	op                string // "" the test matrix, "2I" or "zero"
	rhs               string // "" random, or "zero", "-0", "NaN", "Inf"
	wantIters         int    // GMRES iterations of the reference
	wantConverged     bool
	savedOps          int
	savedInner        int
}

var zgScenarios = []zgScenario{
	// The budget runs out with the estimate above the tolerance: the opening
	// application and the closing residual (one application, one norm) go.
	{name: "budget", restart: 5, maxIters: 5, tol: 1e-30, wantIters: 5, savedOps: 2, savedInner: 1},
	{name: "budget of one", restart: 1, maxIters: 1, tol: 0, wantIters: 1, savedOps: 2, savedInner: 1},
	{name: "budget in the third cycle", restart: 5, maxIters: 12, tol: 1e-30, wantIters: 12, savedOps: 2, savedInner: 1},
	{name: "budget at a cycle end", restart: 4, maxIters: 8, tol: 1e-30, wantIters: 8, savedOps: 2, savedInner: 1},
	// A tolerance exit is confirmed by the true residual as before; only the
	// opening application goes.
	{name: "tolerance at the last budgeted iteration", restart: 5, maxIters: 5, tolAt: 5, wantIters: 5, wantConverged: true, savedOps: 1},
	{name: "tolerance earlier", restart: 5, maxIters: 5, tolAt: 3, wantIters: 3, wantConverged: true, savedOps: 1},
	{name: "tolerance in the second cycle", restart: 3, maxIters: 9, tolAt: 5, wantIters: 5, wantConverged: true, savedOps: 1},
	{name: "lucky breakdown", restart: 6, maxIters: 10, tol: 1e-12, op: "2I", wantIters: 1, wantConverged: true, savedOps: 1},
	{name: "breakdown", restart: 4, maxIters: 8, tol: 1e-10, op: "zero", wantIters: 1, savedOps: 1},
	{name: "b = 0", restart: 5, maxIters: 5, tol: 1e-6, rhs: "zero", wantConverged: true, savedOps: 1},
	{name: "b with -0 entries", restart: 5, maxIters: 5, tol: 1e-30, rhs: "-0", wantIters: 5, savedOps: 2, savedInner: 1},
	{name: "b with a NaN entry", restart: 5, maxIters: 5, tol: 1e-6, rhs: "NaN", savedOps: 1},
	{name: "b with an Inf entry", restart: 5, maxIters: 5, tol: 1e-6, rhs: "Inf", savedOps: 1},
}

func zgRHS(rng *rand.Rand, n int, kind string) []float64 {
	b := make([]float64, n)
	if kind == "zero" {
		return b
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	switch kind {
	case "-0":
		for i := 3; i < n; i += 7 {
			b[i] = math.Copysign(0, -1)
		}
	case "NaN":
		b[n/2] = math.NaN()
	case "Inf":
		b[n/2] = math.Inf(1)
	}
	return b
}

// TestZeroGuessBitsMatchFullResidual is the proof that neither rule of
// the inner-solve saving moves an iterate: GMRES, FGMRES and CG under the
// zero-start promise, against the loops of commit 6ceac6a started from a
// cleared x, for every way a solve can end, preconditioned or not,
// sequentially and on P ranks with one of them empty. What must differ is
// the work, and by exactly the count each scenario states.
func TestZeroGuessBitsMatchFullResidual(t *testing.T) {
	t.Run("sequential", zeroGuessSequential)
	t.Run("distributed", zeroGuessDistributed)
}

func zeroGuessSequential(t *testing.T) {
	a := laplacian2D(12)
	n := a.Rows
	jacobi := func(z, r []float64) {
		for i := range z {
			z[i] = r[i] / float64(4+i%5)
		}
	}
	ops := map[string]Op{
		"": func(y, x []float64) { a.MulVecTo(y, x) },
		"2I": func(y, x []float64) {
			for i := range y {
				y[i] = 2 * x[i]
			}
		},
		"zero": func(y, x []float64) {
			for i := range y {
				y[i] = 0
			}
		},
	}
	for _, method := range []string{"GMRES", "FGMRES", "CG"} {
		for _, preconditioned := range []bool{false, true} {
			var prec Prec
			if preconditioned {
				prec = jacobi
			}
			for _, sc := range zgScenarios {
				label := fmt.Sprintf("%s/preconditioned=%v/%s", method, preconditioned, sc.name)
				b := zgRHS(rand.New(rand.NewSource(11)), n, sc.rhs)
				opt := Options{Restart: sc.restart, MaxIters: sc.maxIters, Tol: sc.tol}
				if sc.tolAt > 0 {
					probe := zgSolve(method, true, n, ops[sc.op], prec, Seq, b,
						Options{Restart: sc.restart, MaxIters: sc.maxIters, Tol: 1e-30})
					opt.Tol = tolBetween(t, probe.res.History, sc.tolAt)
				}
				want := zgSolve(method, true, n, ops[sc.op], prec, Seq, b, opt)
				got := zgSolve(method, false, n, ops[sc.op], prec, Seq, b, opt)
				savedOps, savedInner := sc.savedOps, sc.savedInner
				if method == "CG" {
					savedOps, savedInner = 1, 0
				} else if sc.op == "2I" && preconditioned {
					// Under the preconditioner 2I has five eigenvalues, not
					// one: five iterations and a tolerance exit.
					if want.res.Iterations != 5 || !want.res.Converged {
						t.Errorf("%s: the reference took %d iterations (converged %v), want 5 and a tolerance exit",
							label, want.res.Iterations, want.res.Converged)
					}
				} else if want.res.Iterations != sc.wantIters || want.res.Converged != sc.wantConverged {
					t.Errorf("%s: the reference took %d iterations (converged %v), the scenario is meant to take %d (%v)",
						label, want.res.Iterations, want.res.Converged, sc.wantIters, sc.wantConverged)
				}
				compareZeroGuess(t, label, got, want, savedOps, savedInner)
			}
		}
	}
}

// zeroGuessDistributed repeats the comparison on P ranks, the last one
// empty from two ranks up, with the distributed operator and inner
// product, so that what the saving is worth on the modeled machine is
// pinned too: every rank sends exactly the messages and bytes of the
// skipped applications less, runs the skipped all-reduce less, is charged
// exactly their flops less, and its clock does not run later.
func zeroGuessDistributed(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		systems := orthSystems(t, 13, p)

		// What one application of the distributed operator, followed by the
		// subtraction from b, and what one inner product cost each rank.
		perOp := make([]dist.Stats, p)
		perDot := make([]float64, p)
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			r := c.Rank()
			s := systems[r]
			_, matvec, in := newDistOps(c, s)
			x, y := make([]float64, s.NLoc()), make([]float64, s.NLoc())
			matvec(y, x)
			c.Compute(float64(s.NLoc()))
			perOp[r] = c.Stats()
			in.Dot(x, y)
			perDot[r] = c.Stats().Flops - perOp[r].Flops
		})

		for _, method := range []string{"GMRES", "FGMRES", "CG"} {
			for _, preconditioned := range []bool{false, true} {
				for _, sc := range zgScenarios {
					if sc.op != "" || sc.rhs != "" {
						continue
					}
					label := fmt.Sprintf("P=%d/%s/preconditioned=%v/%s", p, method, preconditioned, sc.name)
					solve := func(ref bool, tol float64) []zgRun {
						runs := make([]zgRun, p)
						dist.Run(p, testMachine(), func(c *dist.Comm) {
							r := c.Rank()
							s := systems[r]
							d, matvec, in := newDistOps(c, s)
							var prec Prec
							if preconditioned {
								diag := s.A.Diagonal()
								prec = func(z, rr []float64) {
									for i := range z {
										z[i] = rr[i] / diag[i]
									}
									c.Compute(float64(len(z)))
								}
							}
							opt := Options{Restart: sc.restart, MaxIters: sc.maxIters, Tol: tol, Compute: c.Compute}
							run := zgSolve(method, ref, s.NLoc(), matvec, prec, in, s.B, opt)
							run.res = d.attach(run.res)
							run.stats = c.Stats()
							runs[r] = run
						})
						return runs
					}
					tol := sc.tol
					if sc.tolAt > 0 {
						tol = tolBetween(t, solve(true, 1e-30)[0].res.History, sc.tolAt)
					}
					want, got := solve(true, tol), solve(false, tol)
					savedOps, savedInner := sc.savedOps, sc.savedInner
					if method == "CG" {
						savedOps, savedInner = 1, 0
					}
					for r := range got {
						rl := fmt.Sprintf("%s/rank %d", label, r)
						compareZeroGuess(t, rl, got[r], want[r], savedOps, savedInner)
						g, w := got[r].stats, want[r].stats
						if d := w.MsgsSent - g.MsgsSent; d != savedOps*perOp[r].MsgsSent {
							t.Errorf("%s: %d messages fewer than the reference, want %d", rl, d, savedOps*perOp[r].MsgsSent)
						}
						if d := w.BytesSent - g.BytesSent; d != savedOps*perOp[r].BytesSent {
							t.Errorf("%s: %d bytes fewer than the reference, want %d", rl, d, savedOps*perOp[r].BytesSent)
						}
						if d, wantD := w.Flops-g.Flops, float64(savedOps)*perOp[r].Flops+float64(savedInner)*perDot[r]; d != wantD {
							t.Errorf("%s: %v flops fewer than the reference, want %v", rl, d, wantD)
						}
						if g.Clock > w.Clock || g.FaultDelay != w.FaultDelay {
							t.Errorf("%s: clock %v (fault delay %v), reference %v (%v)", rl, g.Clock, g.FaultDelay, w.Clock, w.FaultDelay)
						}
					}
				}
			}
		}
	}
}

// TestZeroGuessPromiseIsCheckedUnderParanoid: a caller that promises a
// zero start and passes something else is caught by the paranoid build,
// in GMRES and in CG; the default build takes its word. The same body
// runs in both modes.
func TestZeroGuessPromiseIsCheckedUnderParanoid(t *testing.T) {
	a := laplacian2D(4)
	n := a.Rows
	matvec := func(y, x []float64) { a.MulVecTo(y, x) }
	b := zgRHS(rand.New(rand.NewSource(5)), n, "")
	for _, method := range []string{"GMRES", "CG"} {
		x := make([]float64, n)
		x[n-1] = 1e-300
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			opt := Options{ZeroGuess: true, Restart: 3, MaxIters: 3, Tol: 1e-30}
			if method == "CG" {
				CG(n, matvec, nil, Seq, b, x, opt)
			} else {
				GMRES(n, matvec, nil, Seq, b, x, opt)
			}
			return false
		}()
		if panicked != paranoid.Enabled {
			t.Errorf("%s with a broken promise: panicked %v, paranoid build %v", method, panicked, paranoid.Enabled)
		}
	}
}
