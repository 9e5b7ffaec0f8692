package fem

import (
	"math"

	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// ScalarPDE describes the scalar model problem
//
//	−k·Δu + v·∇u = f
//
// discretized with P1 elements. When the convection velocity is nonzero
// and SUPG is set, streamline-upwind Petrov–Galerkin weighting is applied
// — the "upwind weighting functions" the paper needs for the
// convection-dominated Test Case 5, producing an unsymmetric matrix.
type ScalarPDE struct {
	Diffusion float64 // k > 0
	// DiffusionFn, when non-nil, makes the diffusion coefficient variable:
	// k(x) evaluated at element centroids (piecewise-constant per element).
	// Discontinuous ("jump") coefficients are the classic stress test for
	// one-level domain-decomposition preconditioners.
	DiffusionFn func(x []float64) float64
	Velocity    []float64                 // constant convection vector; nil or zero for pure diffusion
	Source      func(x []float64) float64 // f; nil means f ≡ 0
	SUPG        bool                      // apply streamline-diffusion stabilization
}

// velocityNorm returns |v| of the convection field (0 when absent).
func (pde *ScalarPDE) velocityNorm() float64 {
	var vnorm float64
	for _, v := range pde.Velocity {
		vnorm += v * v
	}
	return math.Sqrt(vnorm)
}

// perElemCounts returns how many matrix triplets and deferred right-hand-
// side contributions scalarKernel emits per element: one npe×npe block
// each for diffusion, convection and SUPG, one load entry per node and a
// second under SUPG.
func (pde *ScalarPDE) perElemCounts(npe int) (triplets, rhs int) {
	blocks, loads := 1, 1
	if pde.velocityNorm() > 0 {
		blocks++
		if pde.SUPG {
			blocks++
			loads++
		}
	}
	if pde.Source == nil {
		loads = 0
	}
	return blocks * npe * npe, loads * npe
}

// elemScale returns the element length scale h used by the SUPG parameter.
func elemScale(dim int, measure float64) float64 {
	if dim == 2 {
		return math.Sqrt(2 * measure)
	}
	return math.Cbrt(6 * measure)
}

// scalarKernel builds the per-element assembly body of AssembleScalar.
func scalarKernel(m *grid.Mesh, pde ScalarPDE) func(e int, s *sink) {
	npe := m.NPE
	vel := pde.Velocity
	vnorm := pde.velocityNorm()
	convect := vnorm > 0

	return func(e int, s *sink) {
		g := geometry(m, e)
		el := m.Elem(e)

		kDiff := pde.Diffusion
		if pde.DiffusionFn != nil {
			centroid(m, e, s.x)
			kDiff = pde.DiffusionFn(s.x)
		}

		// Diffusion: k·|E|·∇φ_i·∇φ_j.
		for i := 0; i < npe; i++ {
			for j := 0; j < npe; j++ {
				var dot float64
				for d := 0; d < m.Dim; d++ {
					dot += g.grad[i][d] * g.grad[j][d]
				}
				s.add(int(el[i]), int(el[j]), kDiff*g.measure*dot)
			}
		}

		// Source with one-point (centroid) quadrature: exact enough for P1
		// and keeps f evaluations to one per element.
		var fc float64
		if pde.Source != nil {
			centroid(m, e, s.x)
			fc = pde.Source(s.x)
			w := g.measure / float64(npe)
			for i := 0; i < npe; i++ {
				s.addRHS(int(el[i]), w*fc)
			}
		}

		if !convect {
			return
		}

		// Convection: (v·∇φ_j)·∫φ_i = (v·∇φ_j)·|E|/NPE.
		var vg [4]float64
		for i := 0; i < npe; i++ {
			for d := 0; d < m.Dim; d++ {
				vg[i] += vel[d] * g.grad[i][d]
			}
		}
		w := g.measure / float64(npe)
		for i := 0; i < npe; i++ {
			for j := 0; j < npe; j++ {
				s.add(int(el[i]), int(el[j]), w*vg[j])
			}
		}

		if !pde.SUPG {
			return
		}

		// SUPG stabilization: τ·|E|·(v·∇φ_i)(v·∇φ_j), with the classical
		// element Péclet-number parameter
		//   τ = h/(2|v|)·(coth(Pe) − 1/Pe),  Pe = |v|·h/(2k),
		// where h is an element length scale (diameter-equivalent of the
		// measure). The same weighting is applied to the source term.
		h := elemScale(m.Dim, g.measure)
		pe := vnorm * h / (2 * kDiff)
		tau := h / (2 * vnorm) * upwindFn(pe)
		for i := 0; i < npe; i++ {
			for j := 0; j < npe; j++ {
				s.add(int(el[i]), int(el[j]), tau*g.measure*vg[i]*vg[j])
			}
			if pde.Source != nil {
				s.addRHS(int(el[i]), tau*g.measure*vg[i]*fc)
			}
		}
	}
}

// AssembleScalar assembles the stiffness matrix and load vector of pde on
// mesh m, with no boundary conditions applied yet (use ApplyDirichlet).
// Large meshes are assembled in parallel over element chunks; the result
// is bit-identical to the serial assembly for every worker count.
func AssembleScalar(m *grid.Mesh, pde ScalarPDE) (*sparse.CSR, []float64) {
	nnzCap, rhsCap := pde.perElemCounts(m.NPE)
	return assemble(m, m.NumNodes(), nnzCap, rhsCap, scalarKernel(m, pde))
}

// upwindFn is ξ(Pe) = coth(Pe) − 1/Pe, evaluated stably near 0.
func upwindFn(pe float64) float64 {
	if pe < 1e-6 {
		return pe / 3 // series: coth x − 1/x = x/3 − x³/45 + …
	}
	if pe > 350 {
		return 1 - 1/pe // avoid overflow in cosh/sinh
	}
	return math.Cosh(pe)/math.Sinh(pe) - 1/pe
}

// AssembleMass assembles the consistent P1 mass matrix
// M_ij = ∫ φ_i φ_j dx, used by the implicit heat-equation step of Test
// Case 4 (A = M + Δt·K).
func AssembleMass(m *grid.Mesh) *sparse.CSR {
	npe := m.NPE
	// Exact P1 formulas: M^e_ij = |E|/12·(1+δ_ij) on triangles,
	// |E|/20·(1+δ_ij) on tets.
	den := 12.0
	if npe == 4 {
		den = 20.0
	}
	a, _ := assemble(m, m.NumNodes(), npe*npe, 0, func(e int, s *sink) {
		g := geometry(m, e)
		el := m.Elem(e)
		off := g.measure / den
		for i := 0; i < npe; i++ {
			for j := 0; j < npe; j++ {
				v := off
				if i == j {
					v = 2 * off
				}
				s.add(int(el[i]), int(el[j]), v)
			}
		}
	})
	return a
}

// LumpedMass returns the row-sum lumped mass weights: w_i = Σ_j M_ij.
// These are also the nodal quadrature weights ∫φ_i dx.
func LumpedMass(m *grid.Mesh) []float64 {
	nn := m.NumNodes()
	w := make([]float64, nn)
	for e := 0; e < m.NumElems(); e++ {
		g := geometry(m, e)
		share := g.measure / float64(m.NPE)
		for _, n := range m.Elem(e) {
			w[n] += share
		}
	}
	return w
}

// AssembleElasticity assembles the linear-elasticity system of Test Case 6,
//
//	−μ·Δu − (μ+λ)·∇(∇·u) = f,
//
// in the weak form ∫ μ∇u:∇w + (μ+λ)(∇·u)(∇·w) = ∫ f·w, with two
// displacement unknowns per node interleaved as (u₁⁰, u₂⁰, u₁¹, u₂¹, …).
// Traction (stress) boundary conditions are natural and need no assembly
// work; constrained displacement components are imposed afterwards with
// ApplyDirichlet.
func AssembleElasticity(m *grid.Mesh, mu, lambda float64, f func(x []float64) (fx, fy float64)) (*sparse.CSR, []float64) {
	if m.Dim != 2 {
		panic("fem: AssembleElasticity supports 2D meshes only")
	}
	npe := m.NPE
	gd := mu + lambda
	rhsCap := 0
	if f != nil {
		rhsCap = 2 * npe
	}
	return assemble(m, 2*m.NumNodes(), npe*npe*4, rhsCap, func(e int, s *sink) {
		g := geometry(m, e)
		el := m.Elem(e)
		for i := 0; i < npe; i++ {
			for j := 0; j < npe; j++ {
				var gradDot float64
				for d := 0; d < 2; d++ {
					gradDot += g.grad[i][d] * g.grad[j][d]
				}
				// Block (2×2) coupling between nodes i and j:
				//   μ(∇φ_i·∇φ_j)·I + (μ+λ)·∇φ_j⊗∇φ_i  (w-component α, u-component β)
				for alpha := 0; alpha < 2; alpha++ {
					for beta := 0; beta < 2; beta++ {
						v := gd * g.grad[i][alpha] * g.grad[j][beta]
						if alpha == beta {
							v += mu * gradDot
						}
						s.add(2*int(el[i])+alpha, 2*int(el[j])+beta, g.measure*v)
					}
				}
			}
		}
		if f != nil {
			centroid(m, e, s.x)
			fx, fy := f(s.x)
			w := g.measure / float64(npe)
			for i := 0; i < npe; i++ {
				s.addRHS(2*int(el[i]), w*fx)
				s.addRHS(2*int(el[i])+1, w*fy)
			}
		}
	})
}
