package fem

import (
	"fmt"

	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// HeatThetaMatrices builds the operators of the one-step θ-method for the
// heat equation u_t = ∇²u:
//
//	(M + θ·Δt·K)·uˡ = (M − (1−θ)·Δt·K)·uˡ⁻¹
//
// θ = 1 is the implicit Euler step of the paper's Test Case 4 (eq. 12);
// θ = ½ is Crank–Nicolson (second order in Δt); θ = 0 would be explicit
// Euler, which is rejected because the library's solvers are pointless
// for it. Boundary conditions are applied afterwards by the caller
// (ApplyDirichlet on lhs; the rhs matrix is only ever multiplied by
// vectors that already satisfy them).
func HeatThetaMatrices(m *grid.Mesh, dt, theta float64) (lhs, rhs *sparse.CSR, err error) {
	if dt <= 0 {
		return nil, nil, fmt.Errorf("fem: time step %g must be positive", dt)
	}
	if theta <= 0 || theta > 1 {
		return nil, nil, fmt.Errorf("fem: theta %g must lie in (0, 1]", theta)
	}
	k, _ := AssembleScalar(m, ScalarPDE{Diffusion: 1})
	mass := AssembleMass(m)
	lhs = addScaled(mass, k, theta*dt)
	rhs = addScaled(mass, k, -(1-theta)*dt)
	return lhs, rhs, nil
}

// addScaled returns a + s·b for matrices with arbitrary (FEM-compatible)
// patterns.
func addScaled(a, b *sparse.CSR, s float64) *sparse.CSR {
	n := a.Rows
	coo := sparse.NewCOO(n, n, a.NNZ()+b.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), vals[k])
		}
		cols, vals = b.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), s*vals[k])
		}
	}
	return coo.ToCSR()
}
