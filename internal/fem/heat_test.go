package fem

import (
	"math"
	"testing"

	"parapre/internal/grid"
)

func TestThetaOneMatchesTestCase4Operator(t *testing.T) {
	// The implicit Euler (θ = 1) step reproduces the paper's
	// A = M + Δt·K (eq. 13), and its right-hand side operator is M.
	g := grid.UnitCubeTet(3)
	lhs, rhsM := HeatStep(g, 0.05)
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
		cols, vals = rhsM.Row(i)
		for kk, j32 := range cols {
			j := int(j32)
			if math.Float64bits(vals[kk]) != math.Float64bits(mass.At(i, j)) {
				t.Fatalf("rhs (%d,%d) differs from M", i, j)
			}
		}
	}
}
