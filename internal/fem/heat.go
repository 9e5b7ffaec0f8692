package fem

import (
	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// HeatStep returns the operators of one implicit Euler step of the heat
// equation u_t = ∇²u, the paper's Test Case 4 (eq. 12–13):
//
//	(M + Δt·K)·uˡ = M·uˡ⁻¹
//
// a = M + Δt·K is summed row by row, M's entry before Δt·K's where both
// store one: that order fixes the bits of every sum, and so of Test Case
// 4. Boundary conditions are the caller's: ApplyDirichlet on a, while mass
// is only ever multiplied by vectors that already satisfy them.
func HeatStep(m *grid.Mesh, dt float64) (a, mass *sparse.CSR) {
	k, _ := AssembleScalar(m, ScalarPDE{Diffusion: 1})
	mass = AssembleMass(m)
	n := k.Rows
	coo := sparse.NewCOO(n, n, k.NNZ()+mass.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := mass.Row(i)
		for kk, j := range cols {
			coo.Add(i, int(j), vals[kk])
		}
		cols, vals = k.Row(i)
		for kk, j := range cols {
			coo.Add(i, int(j), dt*vals[kk])
		}
	}
	return coo.ToCSR(), mass
}
