// Package cases assembles the paper's suite of six PDE test cases (§3) as
// ready-to-distribute linear systems. Each case is parameterized by a
// resolution so the paper-scale problems (≈10⁶ unknowns) and CI-scale
// versions share one code path.
//
// Note on signs: the paper writes the Poisson problems as ∇²u = f with
// f(x,y) = x·e^y and boundary data u = x·e^y; since ∇²(x·e^y) = x·e^y,
// that combination makes u = x·e^y the exact solution of ∇²u = u. We
// assemble the standard −∇²u = f form and negate f accordingly, so the
// harmonic-like manufactured solution is preserved; the matrix — the only
// thing that matters for the preconditioner comparison — is identical.
package cases

import (
	"fmt"
	"math"

	"parapre/internal/core"
	"parapre/internal/fem"
	"parapre/internal/grid"
)

// Case describes one of the paper's test cases.
type Case struct {
	ID          int
	Name        string
	Description string
	SPD         bool
	DefaultSize int // scaled-down size used by tests/benches
	PaperSize   int // the paper's resolution parameter
	Build       func(size int) *core.Problem
	// Unknowns is the order of Build(size).A in closed form — what a server
	// checks before it lets Build allocate — and 0 for a size Build rejects.
	// Exact for every case but tc3, whose carved lattice has no closed form:
	// there it is the full lattice's size², about a sixth too many.
	Unknowns func(size int) int
}

// lattice returns dofs·m^dim, the unknowns on a structured grid of m nodes
// a side, saturating instead of overflowing; 0 when m is below least, the
// smallest side the grid's generator accepts.
func lattice(m, least, dim, dofs int) int {
	if m < least {
		return 0
	}
	n := dofs
	for ; dim > 0; dim-- {
		if n > math.MaxInt/m {
			return math.MaxInt
		}
		n *= m
	}
	return n
}

// All returns the paper's six test cases in its order, then the tc7-jump
// extension.
func All() []Case {
	return []Case{
		{
			ID: 1, Name: "tc1-poisson2d",
			Description: "Poisson, 2D unit square, structured grid (paper: 1001² = 1,002,001 points)",
			SPD:         true, DefaultSize: 33, PaperSize: 1001, Build: Poisson2D,
			Unknowns: func(m int) int { return lattice(m, 2, 2, 1) },
		},
		{
			ID: 2, Name: "tc2-poisson3d",
			Description: "Poisson, 3D unit cube, structured grid (paper: 101³ = 1,030,301 points)",
			SPD:         true, DefaultSize: 9, PaperSize: 101, Build: Poisson3D,
			Unknowns: func(m int) int { return lattice(m, 2, 3, 1) },
		},
		{
			ID: 3, Name: "tc3-unstructured",
			Description: "Poisson, 2D plate-with-hole, unstructured grid (paper: 521,185 points)",
			SPD:         true, DefaultSize: 37, PaperSize: 723, Build: PoissonUnstructured,
			Unknowns: func(m int) int { return lattice(m, 8, 2, 1) },
		},
		{
			ID: 4, Name: "tc4-heat3d",
			Description: "Heat equation, one implicit step Δt=0.05, 3D unit cube (paper: 101³)",
			SPD:         true, DefaultSize: 9, PaperSize: 101, Build: Heat3D,
			Unknowns: func(m int) int { return lattice(m, 2, 3, 1) },
		},
		{
			ID: 5, Name: "tc5-convdiff",
			Description: "Convection–diffusion, |v|=1000, θ=π/4, SUPG upwinding, 2D unit square (paper: 1001²)",
			SPD:         false, DefaultSize: 33, PaperSize: 1001, Build: ConvDiff2D,
			Unknowns: func(m int) int { return lattice(m, 2, 2, 1) },
		},
		{
			ID: 6, Name: "tc6-elasticity",
			Description: "Linear elasticity, quarter ring, curvilinear grid, 2 dof/node (paper: 241×241 points)",
			SPD:         true, DefaultSize: 17, PaperSize: 241, Build: Elasticity,
			Unknowns: func(m int) int { return lattice(m, 2, 2, 2) },
		},
		{
			ID: 7, Name: "tc7-jump",
			Description: "EXTENSION: Poisson with a 1000:1 discontinuous coefficient, 2D unit square — the classic stress test for one-level DD preconditioners",
			SPD:         true, DefaultSize: 33, PaperSize: 0, Build: JumpCoefficient,
			Unknowns: func(m int) int { return lattice(m, 2, 2, 1) },
		},
	}
}

// ByName returns the case with the given Name.
func ByName(name string) (Case, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("cases: unknown case %q", name)
}

func exact2D(x []float64) float64 { return x[0] * math.Exp(x[1]) }

// Poisson2D is Test Case 1.
func Poisson2D(size int) *core.Problem {
	g := grid.UnitSquareTri(size)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return -exact2D(x) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = exact2D(g.Coord(n))
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc1-poisson2d", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

func exact3D(x []float64) float64 { return x[0] * math.Exp(x[1]*x[2]) }

// Poisson3D is Test Case 2. The paper's f = x(y²+z²)e^{yz} satisfies
// ∇²(x e^{yz}) = f, so u = x·e^{yz} solves −∇²u = −f.
func Poisson3D(size int) *core.Problem {
	g := grid.UnitCubeTet(size)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source: func(x []float64) float64 {
			return -x[0] * (x[1]*x[1] + x[2]*x[2]) * math.Exp(x[1]*x[2])
		},
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = exact3D(g.Coord(n))
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc2-poisson3d", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

// PoissonUnstructured is Test Case 3: the same PDE and data as Test
// Case 1 on the synthetic unstructured plate-with-hole grid.
func PoissonUnstructured(size int) *core.Problem {
	g := grid.PlateWithHole(size)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return -exact2D(x) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = exact2D(g.Coord(n))
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc3-unstructured", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

// Heat3D is Test Case 4: one implicit Euler step of u_t = ∇²u with
// Δt = 0.05, initial condition u⁰ = sin(πx)·sin(πy), homogeneous
// Dirichlet on the face x = 1 and natural conditions elsewhere. The
// system matrix is A = M + Δt·K (fem.HeatStep).
func Heat3D(size int) *core.Problem {
	const dt = 0.05
	g := grid.UnitCubeTet(size)
	a, mass := fem.HeatStep(g, dt)
	n := a.Rows

	// RHS = M·u⁰.
	u0 := make([]float64, n)
	for node := 0; node < n; node++ {
		c := g.Coord(node)
		u0[node] = math.Sin(math.Pi*c[0]) * math.Sin(math.Pi*c[1])
	}
	b := mass.MulVec(u0)

	bc := map[int]float64{}
	for node := 0; node < n; node++ {
		//lint:ignore floatcmp boundary coordinates are exact by mesh construction ((n-1)/(n-1) == 1 in IEEE 754)
		if g.Coord(node)[0] == 1 {
			bc[node] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc4-heat3d", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

// ConvDiff2D is Test Case 5: stationary convection–diffusion with
// |v| = 1000 at angle π/4, SUPG-stabilized (unsymmetric matrix). Boundary
// conditions follow the paper's Fig. 4: u = 0 on the bottom and the lower
// quarter of the left side, u = 1 on the rest of the left side, natural
// (zero normal derivative) on the right and top sides.
func ConvDiff2D(size int) *core.Problem {
	g := grid.UnitSquareTri(size)
	v := 1000.0
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Velocity:  []float64{v * math.Cos(math.Pi/4), v * math.Sin(math.Pi/4)},
		SUPG:      true,
	})
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		switch {
		case c[1] == 0:
			bc[n] = 0
		case c[0] == 0 && c[1] <= 0.25:
			bc[n] = 0
		case c[0] == 0:
			bc[n] = 1
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc5-convdiff", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

// JumpCoefficient is an extension case beyond the paper: −∇·(k∇u) = 1
// with k jumping from 1 to 1000 inside the square [0.25,0.75]², u = 0 on
// the boundary. Strong coefficient jumps degrade one-level block
// preconditioners far more than Schur-complement-enhanced ones — the same
// qualitative axis the paper probes with its elasticity case.
func JumpCoefficient(size int) *core.Problem {
	g := grid.UnitSquareTri(size)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		DiffusionFn: func(x []float64) float64 {
			if x[0] > 0.25 && x[0] < 0.75 && x[1] > 0.25 && x[1] < 0.75 {
				return 1000
			}
			return 1
		},
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
	return &core.Problem{Name: "tc7-jump", A: a, B: b, Mesh: g, DofsPerNode: 1}
}

// Elasticity is Test Case 6: the displacement field of a quarter ring
// (inner radius 1, outer radius 2) under a volume load, with u₁ = 0 on
// Γ₁ (the x = 0 edge) and u₂ = 0 on Γ₂ (the y = 0 edge); the stress
// vector is prescribed (zero traction) on the rest of the boundary. Two
// unknowns per grid point, as in the paper.
func Elasticity(size int) *core.Problem {
	g := grid.QuarterRing(size, size)
	const mu, lambda = 1.0, 1.5
	a, b := fem.AssembleElasticity(g, mu, lambda,
		func(x []float64) (float64, float64) { return 0, -1 })
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		if math.Abs(c[0]) < 1e-12 { // Γ₁: the θ = π/2 edge
			bc[2*n] = 0
		}
		if math.Abs(c[1]) < 1e-12 { // Γ₂: the θ = 0 edge
			bc[2*n+1] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return &core.Problem{Name: "tc6-elasticity", A: a, B: b, Mesh: g, DofsPerNode: 2}
}
