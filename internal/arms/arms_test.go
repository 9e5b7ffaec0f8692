package arms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapre/internal/fem"
	"parapre/internal/grid"
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
	perm, nB, start := IndSetPerm(group, ng)
	if !perm.IsValid() {
		t.Fatal("invalid permutation")
	}
	for g := 0; g < ng; g++ {
		for i := start[g]; i < start[g+1]; i++ {
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
	perm, nB, start := IndSetPerm(group, ng)
	p := sparse.PermuteSym(a, perm)
	whichBlock := make([]int, nB)
	for g := 0; g < ng; g++ {
		for i := start[g]; i < start[g+1]; i++ {
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

// reduce runs the path Schur 2 takes through this package, on a whole
// matrix: a group-independent set, its permutation, the reduction under it.
func reduce(a *sparse.CSR, maxGroup int, dropTol float64) (*Reduction, error) {
	group, ng := GroupIndependentSet(a, maxGroup)
	perm, _, start := IndSetPerm(group, ng)
	return ReducePermuted(a, perm, start, dropTol)
}

// solveReduced applies a reduction with an exact solve of its S — u_B =
// B⁻¹r_B, z_C = S⁻¹(r_C − E·u_B), z_B = u_B − B⁻¹F·z_C — which is A⁻¹·r
// when the assembly of S dropped nothing.
func solveReduced(t *testing.T, red *Reduction, r []float64) []float64 {
	t.Helper()
	n, nB := len(red.Perm), red.NB
	w := make([]float64, n)
	for i, old := range red.Perm {
		w[i] = r[old]
	}
	uB, rC := make([]float64, nB), w[nB:]
	red.SolveB(uB, w[:nB])
	red.E.MulVecSub(rC, uB)
	zC := rC
	if n > nB {
		d := sparse.NewDense(n-nB, n-nB)
		for i := 0; i < n-nB; i++ {
			cols, vals := red.S.Row(i)
			for k, j := range cols {
				d.Set(i, int(j), vals[k])
			}
		}
		lu, err := d.Factor()
		if err != nil {
			t.Fatalf("S: %v", err)
		}
		zC = lu.Solve(rC)
	}
	fz, corr := make([]float64, nB), make([]float64, nB)
	red.F.MulVecTo(fz, zC)
	red.SolveB(corr, fz)
	z := make([]float64, n)
	for i, old := range red.Perm {
		if i < nB {
			z[old] = uB[i] - corr[i]
		} else {
			z[old] = zC[i-nB]
		}
	}
	return z
}

// relResidual returns ‖b − A·z‖ / ‖b‖.
func relResidual(a *sparse.CSR, z, b []float64) float64 {
	r := append([]float64(nil), b...)
	a.MulVecSub(r, z)
	return sparse.Norm2(r) / sparse.Norm2(b)
}

func TestARMSExactWhenNoDropping(t *testing.T) {
	// One reduction without dropping and an exact solve of S is a direct
	// solver: B, E, F and S are A's factors under the permutation.
	a, b := poissonMatrix(t, 9)
	red, err := reduce(a, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := relResidual(a, solveReduced(t, red, b), b); res > 1e-9 {
		t.Fatalf("exact reduction residual %v", res)
	}
}

func TestARMSUnsymmetric(t *testing.T) {
	// The same on a convection-dominated system, where E is not Fᵀ.
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
	red, err := reduce(a, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := relResidual(a, solveReduced(t, red, b), b); res > 1e-9 {
		t.Fatalf("exact reduction of a convection-dominated system: residual %v", res)
	}
}

func TestARMSSolveFlopsPositive(t *testing.T) {
	a, _ := poissonMatrix(t, 9)
	red, err := reduce(a, 8, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for g := 0; g < red.B.Groups(); g++ {
		lo, hi := red.B.Group(g)
		sz := float64(hi - lo)
		want += 2 * sz * sz
	}
	if got := red.SolveBFlops(); got <= 0 || got != want {
		t.Fatalf("SolveBFlops = %v, want Σ 2·|g|² = %v > 0", got, want)
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
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, dropTol := range []float64{0, 1e-5} {
		red, err := reduce(a, 10, dropTol)
		if err != nil {
			t.Fatal(err)
		}
		// Without dropping the reduction is exact; with it, S misses
		// only entries far below its rows' magnitudes.
		if res := relResidual(a, solveReduced(t, red, b), b); math.IsNaN(res) || res > 1e-6 {
			t.Fatalf("dropTol %g: reduction residual ratio %v", dropTol, res)
		}
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
