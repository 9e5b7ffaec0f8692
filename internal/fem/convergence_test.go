package fem

import (
	"math"
	"testing"

	"parapre/internal/grid"
)

// solveDirichletProblem assembles, applies exact-solution Dirichlet data
// on the whole boundary, solves densely, and returns the max nodal error.
func solveDirichletProblem(t *testing.T, g *grid.Mesh, pde ScalarPDE, exact func([]float64) float64) float64 {
	t.Helper()
	a, b := AssembleScalar(g, pde)
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = exact(g.Coord(n))
		}
	}
	ApplyDirichlet(a, b, bc)
	x := solveDense(t, a, b)
	var maxErr float64
	for n := 0; n < g.NumNodes(); n++ {
		if e := math.Abs(x[n] - exact(g.Coord(n))); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestPoisson3DConvergenceOrder(t *testing.T) {
	// u = e^x·sin(y) is harmonic (also in 3D), non-polynomial — so the
	// discrete solution is not nodally exact and the error must decay
	// O(h²). (Low-degree harmonic polynomials are reproduced exactly by
	// the symmetric Kuhn mesh and would make this test vacuous.)
	exact := func(x []float64) float64 { return math.Exp(x[0]) * math.Sin(x[1]) }
	var errs []float64
	for _, m := range []int{3, 5, 9} {
		errs = append(errs, solveDirichletProblem(t, grid.UnitCubeTet(m),
			ScalarPDE{Diffusion: 1}, exact))
	}
	if errs[0] < errs[1] || errs[1] < errs[2] {
		t.Fatalf("3D errors not decreasing: %v", errs)
	}
	if ratio := errs[1] / errs[2]; ratio < 2.5 {
		t.Fatalf("3D convergence ratio %v, want ≳4 (errors %v)", ratio, errs)
	}
}

func TestQuarterRingPoissonHarmonic(t *testing.T) {
	// u = log(r) is harmonic on the annulus; the curvilinear grid must
	// approximate it with errors decaying under refinement.
	exact := func(x []float64) float64 { return 0.5 * math.Log(x[0]*x[0]+x[1]*x[1]) }
	e1 := solveDirichletProblem(t, grid.QuarterRing(5, 7), ScalarPDE{Diffusion: 1}, exact)
	e2 := solveDirichletProblem(t, grid.QuarterRing(9, 13), ScalarPDE{Diffusion: 1}, exact)
	if e2 >= e1 {
		t.Fatalf("quarter-ring errors not decreasing: %v -> %v", e1, e2)
	}
	if e2 > 2e-3 {
		t.Fatalf("quarter-ring error %v too large", e2)
	}
}

func TestUnstructuredConvergence(t *testing.T) {
	// On the jittered plate-with-hole grid: u = e^x·sin(y) is harmonic
	// (note: the paper's x·e^y is NOT — Δ(x·e^y) = x·e^y), so with f = 0
	// the errors must decay under refinement despite the irregular
	// elements.
	exact := func(x []float64) float64 { return math.Exp(x[0]) * math.Sin(x[1]) }
	e1 := solveDirichletProblem(t, grid.PlateWithHole(14), ScalarPDE{Diffusion: 1}, exact)
	e2 := solveDirichletProblem(t, grid.PlateWithHole(26), ScalarPDE{Diffusion: 1}, exact)
	if e2 >= e1 {
		t.Fatalf("unstructured errors not decreasing: %v -> %v", e1, e2)
	}
}

func TestElasticityEnergyPositive(t *testing.T) {
	// Strain energy ½uᵀKu must be positive for non-rigid displacement
	// fields and zero for translations.
	g := grid.QuarterRing(5, 6)
	a, _ := AssembleElasticity(g, 1, 2, nil)
	n := a.Rows

	u := make([]float64, n)
	for node := 0; node < n/2; node++ {
		c := g.Coord(node)
		u[2*node] = c[0] * c[0]
		u[2*node+1] = -c[1]
	}
	if e := energy(a, u); e <= 0 {
		t.Fatalf("strain energy %v for deforming field, want > 0", e)
	}
	tr := make([]float64, n)
	for node := 0; node < n/2; node++ {
		tr[2*node] = 3
		tr[2*node+1] = -7
	}
	if e := energy(a, tr); math.Abs(e) > 1e-9 {
		t.Fatalf("translation energy %v, want 0", e)
	}
}

func energy(a interface {
	MulVec(x []float64) []float64
}, u []float64) float64 {
	au := a.MulVec(u)
	var e float64
	for i := range u {
		e += u[i] * au[i]
	}
	return e / 2
}

func TestSUPGConsistencyOrder(t *testing.T) {
	// SUPG is a consistent stabilization: for a smooth exact solution of
	// a moderately convective problem the error must still decay under
	// refinement.
	v := []float64{3, 2}
	exact := func(x []float64) float64 { return math.Sin(math.Pi*x[0]) * math.Sin(math.Pi*x[1]) }
	src := func(x []float64) float64 {
		// −Δu + v·∇u for the u above.
		pi := math.Pi
		lap := 2 * pi * pi * exact(x)
		conv := v[0]*pi*math.Cos(pi*x[0])*math.Sin(pi*x[1]) + v[1]*pi*math.Sin(pi*x[0])*math.Cos(pi*x[1])
		return lap + conv
	}
	var errs []float64
	for _, m := range []int{5, 9, 17} {
		errs = append(errs, solveDirichletProblem(t, grid.UnitSquareTri(m),
			ScalarPDE{Diffusion: 1, Velocity: v, SUPG: true, Source: src}, exact))
	}
	if !(errs[0] > errs[1] && errs[1] > errs[2]) {
		t.Fatalf("SUPG errors not decreasing: %v", errs)
	}
}

func TestGeometryMeasuresMatchOrientation(t *testing.T) {
	// Swapping two nodes of an element flips orientation but must not
	// change the assembled stiffness (the paper's unstructured mesh has
	// mixed orientations).
	g := grid.UnitSquareTri(4)
	a1, _ := AssembleScalar(g, ScalarPDE{Diffusion: 1})
	// Flip the first triangle's orientation.
	g.Elems[0], g.Elems[1] = g.Elems[1], g.Elems[0]
	a2, _ := AssembleScalar(g, ScalarPDE{Diffusion: 1})
	for i := 0; i < a1.Rows; i++ {
		for j := 0; j < a1.Cols; j++ {
			if math.Abs(a1.At(i, j)-a2.At(i, j)) > 1e-13 {
				t.Fatalf("orientation flip changed stiffness at (%d,%d)", i, j)
			}
		}
	}
}

func TestVariableDiffusionPatch(t *testing.T) {
	// With smooth k(x) and a linear exact solution, −∇·(k∇u) = −∇k·∇u;
	// pass that as the source and the patch test must hold (piecewise-
	// constant k sampling is exact for the stiffness of linear u only up
	// to quadrature — use k linear so centroid sampling is exact).
	g := grid.UnitSquareTri(7)
	kfn := func(x []float64) float64 { return 1 + x[0] }
	u := func(x []float64) float64 { return 2 * x[1] } // ∇u = (0,2): ∇k·∇u = 0
	a, b := AssembleScalar(g, ScalarPDE{Diffusion: 1, DiffusionFn: kfn})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = u(g.Coord(n))
		}
	}
	ApplyDirichlet(a, b, bc)
	x := solveDense(t, a, b)
	for n := 0; n < g.NumNodes(); n++ {
		if math.Abs(x[n]-u(g.Coord(n))) > 1e-9 {
			t.Fatalf("variable-coefficient patch failed at %d", n)
		}
	}
}

func TestJumpCoefficientStillSPD(t *testing.T) {
	g := grid.UnitSquareTri(9)
	a, _ := AssembleScalar(g, ScalarPDE{
		Diffusion:   1,
		DiffusionFn: func(x []float64) float64 { return 1 + 999*x[0] },
	})
	if !isSymmetric(a, 1e-12) {
		t.Fatal("variable-coefficient stiffness not symmetric")
	}
}
