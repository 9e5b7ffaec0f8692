package krylov

import (
	"math"
	"math/rand"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

func randSystem(rng *rand.Rand, n int, density float64, unsym bool) (*sparse.CSR, []float64, []float64) {
	coo := sparse.NewCOO(n, n, n*8)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 10+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				if !unsym {
					coo.Add(j, i, v)
				}
			}
		}
	}
	a := coo.ToCSR()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	return a, a.MulVec(xTrue), xTrue
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestGMRESUnpreconditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, unsym := range []bool{false, true} {
		a, b, xTrue := randSystem(rng, 60, 0.1, unsym)
		x := make([]float64, 60)
		res := SolveCSR(a, nil, b, x, Options{Restart: 30, MaxIters: 500, Tol: 1e-10})
		if !res.Converged {
			t.Fatalf("unsym=%v: did not converge: %+v", unsym, res)
		}
		if d := maxAbsDiff(x, xTrue); d > 1e-7 {
			t.Fatalf("unsym=%v: solution error %v", unsym, d)
		}
		if res.Iterations <= 0 || res.Initial <= 0 {
			t.Fatalf("bogus result fields: %+v", res)
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a, _, _ := randSystem(rand.New(rand.NewSource(2)), 10, 0.2, false)
	x := make([]float64, 10)
	res := SolveCSR(a, nil, make([]float64, 10), x, DefaultOptions())
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x moved for zero RHS")
		}
	}
}

func TestGMRESWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, xTrue := randSystem(rng, 40, 0.15, false)
	x := append([]float64(nil), xTrue...)
	res := SolveCSR(a, nil, b, x, DefaultOptions())
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("exact initial guess should converge instantly: %+v", res)
	}
}

func TestGMRESMaxItersRespected(t *testing.T) {
	// An ill-conditioned system with a tiny iteration cap must stop at
	// the cap and report non-convergence.
	n := 200
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	res := SolveCSR(a, nil, b, x, Options{Restart: 10, MaxIters: 7, Tol: 1e-14})
	if res.Converged {
		t.Fatal("unexpected convergence")
	}
	if res.Iterations > 7 {
		t.Fatalf("performed %d iterations, cap 7", res.Iterations)
	}
}

func TestGMRESWithILUTPreconditioner(t *testing.T) {
	// ILUT preconditioning must cut the iteration count substantially on
	// a 2D Poisson matrix.
	g := grid.UnitSquareTri(17)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Source: func(x []float64) float64 { return 1 }})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	n := a.Rows

	solve := func(pr Prec) Result {
		x := make([]float64, n)
		return SolveCSR(a, pr, b, x, Options{Restart: 20, MaxIters: 500, Tol: 1e-8})
	}
	plain := solve(nil)
	f, err := ilu.ILUT(a, ilu.DefaultILUT())
	if err != nil {
		t.Fatal(err)
	}
	prec := solve(func(z, r []float64) { f.Solve(z, r) })
	if !plain.Converged || !prec.Converged {
		t.Fatalf("convergence failure: plain %+v prec %+v", plain, prec)
	}
	if prec.Iterations*3 > plain.Iterations {
		t.Fatalf("ILUT did not help: %d vs %d iterations", prec.Iterations, plain.Iterations)
	}
}

func TestFGMRESWithVariablePreconditioner(t *testing.T) {
	// Inner GMRES as preconditioner: only the flexible variant is
	// guaranteed to handle a preconditioner that varies per application.
	rng := rand.New(rand.NewSource(4))
	a, b, xTrue := randSystem(rng, 80, 0.08, true)
	inner := func(z, r []float64) {
		for i := range z {
			z[i] = 0
		}
		SolveCSR(a, nil, r, z, Options{Restart: 5, MaxIters: 5, Tol: 1e-2})
	}
	x := make([]float64, 80)
	res := GMRES(80, func(y, xx []float64) { a.MulVecTo(y, xx) }, inner, Seq, b, x,
		Options{Restart: 20, MaxIters: 200, Tol: 1e-10, Flexible: true})
	if !res.Converged {
		t.Fatalf("FGMRES did not converge: %+v", res)
	}
	if d := maxAbsDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("solution error %v", d)
	}
	// The variable preconditioner should make it much faster than plain.
	plainX := make([]float64, 80)
	plain := SolveCSR(a, nil, b, plainX, Options{Restart: 20, MaxIters: 200, Tol: 1e-10})
	if plain.Converged && res.Iterations > plain.Iterations {
		t.Fatalf("FGMRES+inner (%d) slower than plain (%d)", res.Iterations, plain.Iterations)
	}
}

func TestGMRESSmallRestartStillConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, xTrue := randSystem(rng, 50, 0.1, false)
	x := make([]float64, 50)
	res := SolveCSR(a, nil, b, x, Options{Restart: 3, MaxIters: 2000, Tol: 1e-9})
	if !res.Converged {
		t.Fatalf("GMRES(3) failed: %+v", res)
	}
	if d := maxAbsDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("solution error %v", d)
	}
}

func TestCGMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// SPD via A = Mᵀ+M construction (diag dominant symmetric).
	a, b, xTrue := randSystem(rng, 70, 0.05, false)
	x := make([]float64, 70)
	res := CG(70, func(y, xx []float64) { a.MulVecTo(y, xx) }, nil, Seq, b, x,
		Options{MaxIters: 500, Tol: 1e-12})
	if !res.Converged {
		t.Fatalf("CG failed: %+v", res)
	}
	if d := maxAbsDiff(x, xTrue); d > 1e-8 {
		t.Fatalf("solution error %v", d)
	}
}

func TestCGPreconditioned(t *testing.T) {
	g := grid.UnitSquareTri(15)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Source: func(x []float64) float64 { return 1 }})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	n := a.Rows
	f, err := ilu.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pr Prec) Result {
		x := make([]float64, n)
		return CG(n, func(y, xx []float64) { a.MulVecTo(y, xx) }, pr, Seq, b, x,
			Options{MaxIters: 500, Tol: 1e-8})
	}
	plain := run(nil)
	prec := run(func(z, r []float64) { f.Solve(z, r) })
	if !plain.Converged || !prec.Converged {
		t.Fatalf("CG convergence failure: %+v / %+v", plain, prec)
	}
	if prec.Iterations >= plain.Iterations {
		t.Fatalf("IC-style preconditioning did not reduce iterations: %d vs %d", prec.Iterations, plain.Iterations)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	a := coo.ToCSR()
	x := make([]float64, 2)
	res := CG(2, func(y, xx []float64) { a.MulVecTo(y, xx) }, nil, Seq,
		[]float64{0, 1}, x, Options{MaxIters: 10, Tol: 1e-10})
	if !res.Breakdown {
		t.Fatalf("expected breakdown on indefinite matrix: %+v", res)
	}
}

// --- distributed solver tests ---

func testMachine() *dist.Machine {
	return &dist.Machine{Name: "test", FlopRate: 1e9, Latency: 1e-6, ByteTime: 1e-9, Load: 1}
}

func buildDistributedPoisson(t *testing.T, m, p int) ([]*dsys.System, *sparse.CSR, []float64) {
	t.Helper()
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return x[0] * math.Exp(x[1]) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			c := g.Coord(n)
			bc[n] = c[0] * math.Exp(c[1])
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	ptr, adj := g.NodeGraph()
	part, err := partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, p, 3)
	if err != nil {
		panic(err)
	}
	return dsys.Distribute(a, b, part, p), a, b
}

func TestDistributedGMRESMatchesGlobalSolve(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		systems, a, b := buildDistributedPoisson(t, 13, p)
		// Global reference solution.
		want := make([]float64, a.Rows)
		ref := SolveCSR(a, nil, b, want, Options{Restart: 30, MaxIters: 3000, Tol: 1e-10})
		if !ref.Converged {
			t.Fatal("reference solve failed")
		}
		xl := make([][]float64, p)
		iters := make([]int, p)
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			s := systems[c.Rank()]
			x := make([]float64, s.NLoc())
			res := Distributed(c, s, nil, s.B, x, Options{Restart: 30, MaxIters: 3000, Tol: 1e-10})
			if !res.Converged {
				t.Errorf("p=%d rank %d: no convergence: %+v", p, c.Rank(), res)
			}
			xl[c.Rank()] = x
			iters[c.Rank()] = res.Iterations
		})
		got := dsys.Gather(systems, xl)
		if d := maxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("p=%d: distributed solution differs by %v", p, d)
		}
		for r := 1; r < p; r++ {
			if iters[r] != iters[0] {
				t.Fatalf("p=%d: ranks disagree on iteration count: %v", p, iters)
			}
		}
	}
}

func TestDistributedGMRESDeterministic(t *testing.T) {
	const p = 4
	systems, _, _ := buildDistributedPoisson(t, 11, p)
	run := func() ([]float64, int) {
		xl := make([][]float64, p)
		var iters int
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			s := systems[c.Rank()]
			x := make([]float64, s.NLoc())
			res := Distributed(c, s, nil, s.B, x, Options{Restart: 20, MaxIters: 2000, Tol: 1e-8})
			xl[c.Rank()] = x
			if c.Rank() == 0 {
				iters = res.Iterations
			}
		})
		return dsys.Gather(systems, xl), iters
	}
	x1, it1 := run()
	x2, it2 := run()
	if it1 != it2 {
		t.Fatalf("iteration counts differ across runs: %d vs %d", it1, it2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("solutions not bitwise identical at %d (collectives not rank-ordered?)", i)
		}
	}
}

func TestDistributedCGMatchesGMRESOnSPD(t *testing.T) {
	const p = 3
	systems, a, b := buildDistributedPoisson(t, 11, p)
	want := make([]float64, a.Rows)
	if res := SolveCSR(a, nil, b, want, Options{Restart: 40, MaxIters: 4000, Tol: 1e-10}); !res.Converged {
		t.Fatal("reference failed")
	}
	xl := make([][]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		x := make([]float64, s.NLoc())
		res := DistributedCG(c, s, nil, s.B, x, Options{MaxIters: 4000, Tol: 1e-10})
		if !res.Converged {
			t.Errorf("rank %d CG failed: %+v", c.Rank(), res)
		}
		xl[c.Rank()] = x
	})
	got := dsys.Gather(systems, xl)
	if d := maxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("CG solution differs by %v", d)
	}
}

func TestComputeHookCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, _ := randSystem(rng, 30, 0.2, false)
	var charged float64
	x := make([]float64, 30)
	SolveCSR(a, nil, b, x, Options{
		Restart: 10, MaxIters: 50, Tol: 1e-8,
		Compute: func(f float64) { charged += f },
	})
	if charged <= 0 {
		t.Fatal("no flops charged through Compute hook")
	}
}

func TestResidualHistoryRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b, _ := randSystem(rng, 40, 0.1, false)
	x := make([]float64, 40)
	res := SolveCSR(a, nil, b, x, Options{Restart: 20, MaxIters: 200, Tol: 1e-8, RecordHistory: true})
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	if len(res.History) < res.Iterations {
		t.Fatalf("history length %d < iterations %d", len(res.History), res.Iterations)
	}
	if res.History[0] != res.Initial {
		t.Fatalf("History[0] = %v, want initial %v", res.History[0], res.Initial)
	}
	// GMRES residual estimates are non-increasing within a restart cycle;
	// with restart=20 and fast convergence the whole history should be
	// non-increasing.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-12) {
			t.Fatalf("history not non-increasing at %d: %v > %v", i, res.History[i], res.History[i-1])
		}
	}
	last := res.History[len(res.History)-1]
	if last > res.Initial*1e-8 {
		t.Fatalf("final history entry %v did not reach tolerance", last)
	}
}

func TestCGHistoryRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b, _ := randSystem(rng, 40, 0.08, false)
	x := make([]float64, 40)
	res := CG(40, func(y, xx []float64) { a.MulVecTo(y, xx) }, nil, Seq, b, x,
		Options{MaxIters: 200, Tol: 1e-10, RecordHistory: true})
	if !res.Converged {
		t.Fatal("CG failed")
	}
	if len(res.History) != res.Iterations+1 {
		t.Fatalf("history length %d, want %d", len(res.History), res.Iterations+1)
	}
}

func TestNoHistoryByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b, _ := randSystem(rng, 20, 0.2, false)
	x := make([]float64, 20)
	res := SolveCSR(a, nil, b, x, DefaultOptions())
	if res.History != nil {
		t.Fatal("history recorded without RecordHistory")
	}
}
