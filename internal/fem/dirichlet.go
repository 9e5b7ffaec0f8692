package fem

import "parapre/internal/sparse"

// ApplyDirichlet imposes u[dof] = value[dof] for every entry of bc on the
// assembled system (A, b), symmetrically: known values are moved to the
// right-hand side, the constrained rows and columns are zeroed, and the
// diagonal is set to 1 so the constrained unknowns solve trivially to
// their boundary values. A keeps its sparsity pattern (eliminated entries
// become explicit zeros), which the ILU factorizations downstream rely on
// for stable, uniform patterns.
//
// The matrix is modified in place; the returned slice is b (also modified
// in place).
func ApplyDirichlet(a *sparse.CSR, b []float64, bc map[int]float64) []float64 {
	if len(bc) == 0 {
		return b
	}
	isBC := make([]bool, a.Rows)
	val := make([]float64, a.Rows)
	//lint:ignore detaint scatter to unique map keys: each val[dof] written once, order-independent
	for dof, v := range bc {
		isBC[dof] = true
		val[dof] = v
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		if isBC[i] {
			// Constrained row: identity.
			for k, j := range cols {
				if int(j) == i {
					vals[k] = 1
				} else {
					vals[k] = 0
				}
			}
			b[i] = val[i]
			continue
		}
		// Free row: move constrained columns to the RHS.
		for k, j := range cols {
			if isBC[j] {
				b[i] -= vals[k] * val[j]
				vals[k] = 0
			}
		}
	}
	return b
}
