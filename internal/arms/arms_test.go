package arms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

func poissonMatrix(t testing.TB, m int) (*sparse.CSR, []float64) {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Source: func(x []float64) float64 { return 1 }})
	dirichletAll(g, a, b, 1)
	return a, b
}

func TestGroupIndependentSetInvariant(t *testing.T) {
	a, _ := poissonMatrix(t, 15)
	for _, maxG := range []int{1, 4, 16, 64} {
		group, ng := GroupIndependentSet(a, maxG)
		if ng == 0 {
			t.Fatalf("maxG=%d: no groups", maxG)
		}
		sizes := make([]int, ng)
		for v, g := range group {
			if g == -2 {
				t.Fatalf("vertex %d unassigned", v)
			}
			if g >= 0 {
				sizes[g]++
			}
		}
		for g, s := range sizes {
			if s == 0 {
				t.Fatalf("group %d empty", g)
			}
			if s > maxG {
				t.Fatalf("group %d has %d > maxG %d members", g, s, maxG)
			}
		}
		// Core invariant: no edge connects two different groups.
		for v := 0; v < a.Rows; v++ {
			if group[v] < 0 {
				continue
			}
			cols, _ := a.Row(v)
			for _, w32 := range cols {
				w := int(w32)
				if w != v && group[w] >= 0 && group[w] != group[v] {
					t.Fatalf("maxG=%d: edge (%d,%d) crosses groups %d-%d", maxG, v, w, group[v], group[w])
				}
			}
		}
	}
}

func TestGroupIndependentSetReducesMost(t *testing.T) {
	// On a FEM mesh most unknowns should land in groups, not the
	// separator, otherwise the reduction is pointless.
	a, _ := poissonMatrix(t, 21)
	group, _ := GroupIndependentSet(a, 24)
	sep := 0
	for _, g := range group {
		if g < 0 {
			sep++
		}
	}
	if sep*2 > a.Rows {
		t.Fatalf("separator has %d of %d vertices", sep, a.Rows)
	}
}

func TestIndSetPermContiguousGroups(t *testing.T) {
	a, _ := poissonMatrix(t, 11)
	group, ng := GroupIndependentSet(a, 10)
	perm, nB, blocks := IndSetPerm(group, ng)
	if !perm.IsValid() {
		t.Fatal("invalid permutation")
	}
	for g, ext := range blocks {
		for i := ext[0]; i < ext[1]; i++ {
			if group[perm[i]] != g {
				t.Fatalf("block %d position %d holds vertex of group %d", g, i, group[perm[i]])
			}
		}
	}
	for i := nB; i < len(perm); i++ {
		if group[perm[i]] >= 0 {
			t.Fatalf("separator region holds grouped vertex at %d", i)
		}
	}
}

func TestARMSBlockDiagonalB(t *testing.T) {
	// After permutation, the leading block must have no entries between
	// different group extents.
	a, _ := poissonMatrix(t, 13)
	group, ng := GroupIndependentSet(a, 12)
	perm, nB, blocks := IndSetPerm(group, ng)
	p := sparse.PermuteSym(a, perm)
	whichBlock := make([]int, nB)
	for g, ext := range blocks {
		for i := ext[0]; i < ext[1]; i++ {
			whichBlock[i] = g
		}
	}
	for i := 0; i < nB; i++ {
		cols, _ := p.Row(i)
		for _, j32 := range cols {
			j := int(j32)
			if j < nB && whichBlock[j] != whichBlock[i] {
				t.Fatalf("B not block diagonal: entry (%d,%d) crosses blocks", i, j)
			}
		}
	}
}

func TestARMSExactWhenNoDropping(t *testing.T) {
	// One level, no drop tolerance, exact last-level LU ⇒ ARMS is a
	// direct solver.
	a, b := poissonMatrix(t, 9)
	s, err := New(a, Options{Levels: 1, MaxGroup: 8, DropTol: 0,
		ILUT: ilu.ILUTOptions{Tau: 0, LFil: 0}})
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, a.Rows)
	s.Apply(z, b, s.NewScratch())
	r := append([]float64(nil), b...)
	a.MulVecSub(r, z)
	if res := sparse.Norm2(r) / sparse.Norm2(b); res > 1e-9 {
		t.Fatalf("exact ARMS residual %v", res)
	}
}

func TestARMSTwoLevelExact(t *testing.T) {
	a, b := poissonMatrix(t, 9)
	s, err := New(a, Options{Levels: 2, MaxGroup: 6, DropTol: 0,
		ILUT: ilu.ILUTOptions{Tau: 0, LFil: 0}})
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, a.Rows)
	s.Apply(z, b, s.NewScratch())
	r := append([]float64(nil), b...)
	a.MulVecSub(r, z)
	if res := sparse.Norm2(r) / sparse.Norm2(b); res > 1e-9 {
		t.Fatalf("two-level exact ARMS residual %v", res)
	}
}

func TestARMSPreconditionsGMRES(t *testing.T) {
	a, b := poissonMatrix(t, 17)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	run := func(pr krylov.Prec) krylov.Result {
		x := make([]float64, n)
		return krylov.SolveCSR(a, pr, b, x, krylov.Options{Restart: 20, MaxIters: 400, Tol: 1e-8})
	}
	plain := run(nil)
	sc := s.NewScratch()
	prec := run(func(z, r []float64) { s.Apply(z, r, sc) })
	if !prec.Converged {
		t.Fatalf("ARMS-preconditioned GMRES failed: %+v", prec)
	}
	if plain.Converged && prec.Iterations*2 > plain.Iterations {
		t.Fatalf("ARMS not effective: %d vs %d iterations", prec.Iterations, plain.Iterations)
	}
}

func TestARMSUnsymmetric(t *testing.T) {
	g := grid.UnitSquareTri(13)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1, Velocity: []float64{700, 700}, SUPG: true,
		Source: func(x []float64) float64 { return 1 },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, sc := make([]float64, a.Rows), s.NewScratch()
	res := krylov.SolveCSR(a, func(z, r []float64) { s.Apply(z, r, sc) }, b, x,
		krylov.Options{Restart: 20, MaxIters: 300, Tol: 1e-8, Flexible: true})
	if !res.Converged {
		t.Fatalf("ARMS on convection-dominated system failed: %+v", res)
	}
}

func TestARMSSolveFlopsPositive(t *testing.T) {
	a, _ := poissonMatrix(t, 9)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.SolveFlops() <= 0 {
		t.Fatal("SolveFlops not positive")
	}
	if s.N() != a.Rows {
		t.Fatal("N mismatch")
	}
}

func TestARMSRejectsNonSquare(t *testing.T) {
	if _, err := New(sparse.NewCSR(2, 3, 0), DefaultOptions()); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestARMSRandomUnstructured(t *testing.T) {
	// Diagonally dominant random pattern (structurally symmetric).
	rng := rand.New(rand.NewSource(1))
	n := 120
	coo := sparse.NewCOO(n, n, n*8)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 12)
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				coo.Add(j, i, v*0.5) // structurally symmetric, unsymmetric values
			}
		}
	}
	a := coo.ToCSR()
	s, err := New(a, Options{Levels: 3, MaxGroup: 10, DropTol: 1e-5, ILUT: ilu.ILUTOptions{Tau: 1e-4, LFil: 30}})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	s.Apply(z, b, s.NewScratch())
	// M⁻¹ should be a decent approximation of A⁻¹ here: residual well
	// below the unpreconditioned baseline.
	r := append([]float64(nil), b...)
	a.MulVecSub(r, z)
	if ratio := sparse.Norm2(r) / sparse.Norm2(b); math.IsNaN(ratio) || ratio > 0.5 {
		t.Fatalf("ARMS apply weak: residual ratio %v", ratio)
	}
}

func TestGroupIndependentSetPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		coo := sparse.NewCOO(n, n, n*6)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
			for k := 0; k < 2; k++ {
				j := rng.Intn(n)
				if j != i {
					coo.Add(i, j, 1)
					coo.Add(j, i, 1)
				}
			}
		}
		a := coo.ToCSR()
		maxG := 1 + rng.Intn(10)
		group, ng := GroupIndependentSet(a, maxG)
		sizes := make([]int, ng)
		for v, g := range group {
			if g == -2 {
				return false
			}
			if g >= 0 {
				sizes[g]++
				cols, _ := a.Row(v)
				for _, w32 := range cols {
					w := int(w32)
					if w != v && group[w] >= 0 && group[w] != g {
						return false
					}
				}
			}
		}
		for _, s := range sizes {
			if s == 0 || s > maxG {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
