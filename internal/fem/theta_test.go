package fem

import (
	"math"
	"testing"

	"parapre/internal/grid"
	"parapre/internal/krylov"
)

// stepHeat integrates the 2D heat equation on a small grid to time T with
// the θ-method and homogeneous Dirichlet BC, returning the final field.
func stepHeat(t *testing.T, m int, dt, theta, T float64) []float64 {
	t.Helper()
	g := grid.UnitSquareTri(m)
	lhs, rhsM, err := HeatThetaMatrices(g, dt, theta)
	if err != nil {
		t.Fatal(err)
	}
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	dummy := make([]float64, g.NumNodes())
	ApplyDirichlet(lhs, dummy, bc)

	u := make([]float64, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		u[n] = math.Sin(math.Pi*c[0]) * math.Sin(math.Pi*c[1])
	}
	steps := int(T/dt + 0.5)
	b := make([]float64, len(u))
	for s := 0; s < steps; s++ {
		rhsM.MulVecTo(b, u)
		for n := range bc {
			b[n] = 0
		}
		x := make([]float64, len(u))
		res := krylov.SolveCSR(lhs, nil, b, x, krylov.Options{Restart: 40, MaxIters: 5000, Tol: 1e-12})
		if !res.Converged {
			t.Fatalf("step %d did not converge", s)
		}
		u = x
	}
	return u
}

func TestThetaSchemeOrders(t *testing.T) {
	// Crank–Nicolson (θ=½) must converge in Δt at second order, implicit
	// Euler (θ=1) at first: halving Δt should shrink the time error by
	// ≈4× resp. ≈2×. The spatial grid is fixed, so compare against a
	// fine-Δt reference of the same spatial problem.
	const m = 9
	const T = 0.08
	center := (m/2)*m + m/2
	ref := stepHeat(t, m, T/64, 0.5, T)[center]

	order := func(theta float64) float64 {
		e1 := math.Abs(stepHeat(t, m, T/4, theta, T)[center] - ref)
		e2 := math.Abs(stepHeat(t, m, T/8, theta, T)[center] - ref)
		return e1 / e2
	}
	be := order(1.0)
	cn := order(0.5)
	t.Logf("error ratios: backward Euler %.2f (want ≈2), Crank–Nicolson %.2f (want ≈4)", be, cn)
	if be < 1.5 || be > 2.6 {
		t.Fatalf("backward Euler ratio %.2f not ≈2", be)
	}
	if cn < 3.2 || cn > 4.8 {
		t.Fatalf("Crank–Nicolson ratio %.2f not ≈4", cn)
	}
}

func TestThetaSchemeValidation(t *testing.T) {
	g := grid.UnitSquareTri(4)
	if _, _, err := HeatThetaMatrices(g, -0.1, 1); err == nil {
		t.Fatal("negative dt accepted")
	}
	if _, _, err := HeatThetaMatrices(g, 0.1, 0); err == nil {
		t.Fatal("theta=0 accepted")
	}
	if _, _, err := HeatThetaMatrices(g, 0.1, 1.5); err == nil {
		t.Fatal("theta>1 accepted")
	}
}

func TestThetaOneMatchesTestCase4Operator(t *testing.T) {
	// θ=1 reproduces the paper's A = M + Δt·K (eq. 13).
	g := grid.UnitCubeTet(3)
	lhs, rhsM, err := HeatThetaMatrices(g, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := AssembleScalar(g, ScalarPDE{Diffusion: 1})
	mass := AssembleMass(g)
	for i := 0; i < lhs.Rows; i++ {
		cols, vals := lhs.Row(i)
		for kk, j32 := range cols {
			j := int(j32)
			want := mass.At(i, j) + 0.05*k.At(i, j)
			if math.Abs(vals[kk]-want) > 1e-13 {
				t.Fatalf("lhs (%d,%d) = %v, want %v", i, j, vals[kk], want)
			}
		}
		// And the rhs operator must be exactly M for θ=1.
		cols, vals = rhsM.Row(i)
		for kk, j32 := range cols {
			j := int(j32)
			if math.Abs(vals[kk]-mass.At(i, j)) > 1e-13 {
				t.Fatalf("rhs (%d,%d) differs from M", i, j)
			}
		}
	}
}
