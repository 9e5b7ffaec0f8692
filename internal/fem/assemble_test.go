package fem

import (
	"math"
	"testing"

	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// solveDense is the direct-solver oracle for small assembled systems.
func solveDense(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	f, err := a.Dense().Factor()
	if err != nil {
		t.Fatalf("dense factor: %v", err)
	}
	return f.Solve(b)
}

func isSymmetric(a *sparse.CSR, tol float64) bool {
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j32 := range cols {
			j := int(j32)
			if math.Abs(vals[k]-at.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// maxAbs is ‖x‖∞.
func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func TestStiffnessRowSumsZero(t *testing.T) {
	// Constants are in the nullspace of the pure Neumann operator, in 2D
	// and 3D, with and without convection (∇·(v·const) = 0 too).
	meshes := []*grid.Mesh{grid.UnitSquareTri(6), grid.UnitCubeTet(3), grid.PlateWithHole(12)}
	for _, m := range meshes {
		for _, vel := range [][]float64{nil, make([]float64, m.Dim)} {
			pde := ScalarPDE{Diffusion: 1, Velocity: vel}
			if vel != nil {
				vel[0] = 3
				vel[m.Dim-1] = -2
				pde.SUPG = true
			}
			a, _ := AssembleScalar(m, pde)
			ones := make([]float64, a.Rows)
			for i := range ones {
				ones[i] = 1
			}
			r := a.MulVec(ones)
			if got := maxAbs(r); got > 1e-10 {
				t.Errorf("%v vel=%v: ‖A·1‖∞ = %v, want 0", m, vel, got)
			}
		}
	}
}

func TestStiffnessSymmetric(t *testing.T) {
	for _, m := range []*grid.Mesh{grid.UnitSquareTri(5), grid.UnitCubeTet(3), grid.QuarterRing(4, 5)} {
		a, _ := AssembleScalar(m, ScalarPDE{Diffusion: 2.5})
		if !isSymmetric(a, 1e-12) {
			t.Errorf("%v: diffusion matrix not symmetric", m)
		}
	}
}

func TestConvectionUnsymmetric(t *testing.T) {
	m := grid.UnitSquareTri(5)
	a, _ := AssembleScalar(m, ScalarPDE{Diffusion: 1, Velocity: []float64{10, 0}})
	if isSymmetric(a, 1e-12) {
		t.Fatal("convection matrix unexpectedly symmetric")
	}
}

// patchTest verifies that an exact linear solution is reproduced to
// rounding when imposed on the whole boundary: P1 elements are exact for
// linear fields, so any discretization error indicates an assembly bug.
func patchTest(t *testing.T, m *grid.Mesh, pde ScalarPDE, exact func(x []float64) float64) {
	t.Helper()
	a, b := AssembleScalar(m, pde)
	onB := m.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < m.NumNodes(); n++ {
		if onB[n] {
			bc[n] = exact(m.Coord(n))
		}
	}
	ApplyDirichlet(a, b, bc)
	x := solveDense(t, a, b)
	for n := 0; n < m.NumNodes(); n++ {
		want := exact(m.Coord(n))
		if math.Abs(x[n]-want) > 1e-9 {
			t.Fatalf("%v: patch test failed at node %d: %v, want %v", m, n, x[n], want)
		}
	}
}

func TestPatchLinear2D(t *testing.T) {
	patchTest(t, grid.UnitSquareTri(6), ScalarPDE{Diffusion: 1},
		func(x []float64) float64 { return 2*x[0] + 3*x[1] - 1 })
}

func TestPatchLinear2DUnstructured(t *testing.T) {
	patchTest(t, grid.PlateWithHole(14), ScalarPDE{Diffusion: 3},
		func(x []float64) float64 { return -x[0] + 0.5*x[1] + 2 })
}

func TestPatchLinear3D(t *testing.T) {
	patchTest(t, grid.UnitCubeTet(3), ScalarPDE{Diffusion: 1},
		func(x []float64) float64 { return x[0] - 2*x[1] + 4*x[2] })
}

func TestPatchLinearConvection(t *testing.T) {
	// For u linear and v constant, −kΔu + v·∇u = v·∇u is constant: use it
	// as the source and the patch test still must hold (SUPG included:
	// the stabilization term is consistent).
	u := func(x []float64) float64 { return 3*x[0] - x[1] }
	v := []float64{2, 5}
	patchTest(t, grid.UnitSquareTri(6),
		ScalarPDE{Diffusion: 1, Velocity: v, SUPG: true,
			Source: func(x []float64) float64 { return v[0]*3 + v[1]*(-1) }},
		u)
}

func TestPoissonManufacturedConvergence(t *testing.T) {
	// u = sin(πx)sin(πy), f = 2π²·u. The max-norm error must shrink by
	// ≈4× per refinement (O(h²)).
	exact := func(x []float64) float64 { return math.Sin(math.Pi*x[0]) * math.Sin(math.Pi*x[1]) }
	src := func(x []float64) float64 { return 2 * math.Pi * math.Pi * exact(x) }
	var errs []float64
	for _, m := range []int{5, 9, 17} {
		g := grid.UnitSquareTri(m)
		a, b := AssembleScalar(g, ScalarPDE{Diffusion: 1, Source: src})
		onB := g.BoundaryNodes()
		bc := map[int]float64{}
		for n := 0; n < g.NumNodes(); n++ {
			if onB[n] {
				bc[n] = 0
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
		errs = append(errs, maxErr)
	}
	if errs[0] < errs[1] || errs[1] < errs[2] {
		t.Fatalf("errors not decreasing: %v", errs)
	}
	if ratio := errs[1] / errs[2]; ratio < 3 || ratio > 5 {
		t.Fatalf("convergence ratio %v, want ≈4 (errors %v)", ratio, errs)
	}
}

func TestMassMatrixProperties(t *testing.T) {
	for _, m := range []*grid.Mesh{grid.UnitSquareTri(6), grid.UnitCubeTet(3)} {
		mass := AssembleMass(m)
		if !isSymmetric(mass, 1e-14) {
			t.Errorf("%v: mass not symmetric", m)
		}
		// Σ_ij M_ij = |Ω|.
		ones := make([]float64, mass.Rows)
		for i := range ones {
			ones[i] = 1
		}
		total := sparse.Dot(ones, mass.MulVec(ones))
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("%v: ΣM = %v, want 1", m, total)
		}
		// Row sums, the nodal quadrature weights ∫φ_i dx, are positive.
		for i, w := range mass.MulVec(ones) {
			if w <= 0 {
				t.Errorf("%v: row sum %d = %v", m, i, w)
				break
			}
		}
	}
}

func TestSUPGSuppressesOscillations(t *testing.T) {
	// Convection-dominated problem: v = (1000, 0)·cos/sin(π/4), u = 1 on
	// part of the inflow, 0 elsewhere on Dirichlet boundary. The stable
	// discrete solution must stay within the BC range up to a small
	// tolerance; plain Galerkin oscillates wildly at this Péclet number.
	g := grid.UnitSquareTri(17)
	v := 1000.0
	vel := []float64{v * math.Cos(math.Pi/4), v * math.Sin(math.Pi/4)}
	overshoot := map[bool]float64{}
	for _, supg := range []bool{false, true} {
		a, b := AssembleScalar(g, ScalarPDE{Diffusion: 1, Velocity: vel, SUPG: supg})
		onB := g.BoundaryNodes()
		bc := map[int]float64{}
		for n := 0; n < g.NumNodes(); n++ {
			if !onB[n] {
				continue
			}
			c := g.Coord(n)
			switch {
			case c[0] == 0 && c[1] > 0.25:
				bc[n] = 1
			case c[0] == 0 || c[1] == 0:
				bc[n] = 0
			}
			// Right and top sides: natural (outflow) — no constraint.
		}
		ApplyDirichlet(a, b, bc)
		x := solveDense(t, a, b)
		over := 0.0
		for _, u := range x {
			if u > 1 {
				over = math.Max(over, u-1)
			}
			if u < 0 {
				over = math.Max(over, -u)
			}
		}
		overshoot[supg] = over
	}
	if overshoot[true] > 0.15 {
		t.Errorf("SUPG overshoot %v, want small", overshoot[true])
	}
	if overshoot[true] > overshoot[false]+1e-12 {
		t.Errorf("SUPG overshoot %v exceeds plain Galerkin %v", overshoot[true], overshoot[false])
	}
}

func TestUpwindFn(t *testing.T) {
	if got := upwindFn(1e-9); math.Abs(got-1e-9/3) > 1e-18 {
		t.Errorf("upwindFn(ε) = %v, want ε/3", got)
	}
	if got := upwindFn(1e6); math.Abs(got-1) > 1e-5 {
		t.Errorf("upwindFn(large) = %v, want ≈1", got)
	}
	prev := 0.0
	for pe := 0.1; pe < 100; pe *= 1.7 {
		v := upwindFn(pe)
		if v <= prev || v >= 1 {
			t.Fatalf("upwindFn not monotone in (0,1): f(%v)=%v after %v", pe, v, prev)
		}
		prev = v
	}
}

func TestElasticityTranslationNullspace(t *testing.T) {
	g := grid.QuarterRing(5, 6)
	a, _ := AssembleElasticity(g, 1, 1.5, nil)
	if !isSymmetric(a, 1e-12) {
		t.Fatal("elasticity matrix not symmetric")
	}
	n := a.Rows
	for alpha := 0; alpha < 2; alpha++ {
		tr := make([]float64, n)
		for i := alpha; i < n; i += 2 {
			tr[i] = 1
		}
		if got := maxAbs(a.MulVec(tr)); got > 1e-10 {
			t.Errorf("translation %d not in nullspace: %v", alpha, got)
		}
	}
}

func TestElasticityPatchLinear(t *testing.T) {
	// Linear displacement field with f = 0 must be reproduced exactly
	// under full Dirichlet BC.
	g := grid.QuarterRing(4, 5)
	exact := func(x []float64) (float64, float64) {
		return 0.1*x[0] - 0.2*x[1] + 0.3, 0.05*x[0] + 0.15*x[1] - 0.1
	}
	a, b := AssembleElasticity(g, 1, 2, nil)
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			u1, u2 := exact(g.Coord(n))
			bc[2*n] = u1
			bc[2*n+1] = u2
		}
	}
	ApplyDirichlet(a, b, bc)
	x := solveDense(t, a, b)
	for n := 0; n < g.NumNodes(); n++ {
		u1, u2 := exact(g.Coord(n))
		if math.Abs(x[2*n]-u1) > 1e-9 || math.Abs(x[2*n+1]-u2) > 1e-9 {
			t.Fatalf("patch failed at node %d: (%v,%v), want (%v,%v)", n, x[2*n], x[2*n+1], u1, u2)
		}
	}
}

func TestElasticityLoadVector(t *testing.T) {
	g := grid.UnitSquareTri(4)
	_, b := AssembleElasticity(g, 1, 1, func(x []float64) (float64, float64) { return 2, -3 })
	var sx, sy float64
	for n := 0; n < g.NumNodes(); n++ {
		sx += b[2*n]
		sy += b[2*n+1]
	}
	// Σ_i ∫f·φ_i = ∫f over the unit square.
	if math.Abs(sx-2) > 1e-12 || math.Abs(sy+3) > 1e-12 {
		t.Fatalf("load sums (%v, %v), want (2, -3)", sx, sy)
	}
}

func TestApplyDirichletKeepsSymmetry(t *testing.T) {
	g := grid.UnitSquareTri(5)
	a, b := AssembleScalar(g, ScalarPDE{Diffusion: 1})
	bc := map[int]float64{0: 1, 3: -2, 17: 0.5}
	ApplyDirichlet(a, b, bc)
	if !isSymmetric(a, 1e-14) {
		t.Fatal("ApplyDirichlet broke symmetry")
	}
	for dof, v := range bc {
		if b[dof] != v {
			t.Fatalf("b[%d] = %v, want %v", dof, b[dof], v)
		}
		cols, vals := a.Row(dof)
		for k, j32 := range cols {
			j := int(j32)
			want := 0.0
			if j == dof {
				want = 1
			}
			if vals[k] != want {
				t.Fatalf("row %d not identity at col %d", dof, j)
			}
		}
	}
}

func TestApplyDirichletEmptyNoop(t *testing.T) {
	g := grid.UnitSquareTri(4)
	a, b := AssembleScalar(g, ScalarPDE{Diffusion: 1})
	before := a.Clone()
	ApplyDirichlet(a, b, nil)
	if !a.Equal(before) {
		t.Fatal("empty BC modified matrix")
	}
}

func TestHeatSystemSPDandBounded(t *testing.T) {
	// A = M + Δt·K must stay symmetric and strictly diagonally "massive":
	// x'Ax > 0 for random x (probe a few vectors).
	g := grid.UnitCubeTet(3)
	a, _ := HeatStep(g, 0.05)
	n := a.Rows
	if !isSymmetric(a, 1e-13) {
		t.Fatal("heat matrix not symmetric")
	}
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(3*trial+i) * 1.7)
		}
		if q := sparse.Dot(x, a.MulVec(x)); q <= 0 {
			t.Fatalf("heat matrix not positive definite: x'Ax = %v", q)
		}
	}
}
