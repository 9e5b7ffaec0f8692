package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"parapre/internal/core"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// The weak-diagonal cells DESIGN §10 asks of Block 2P (column-pivoting
// ILUTP subdomain blocks) against Block 2: two matrices of internal/ilu's
// tests, whose diagonals are weak (N(0, 0.01) against N(0, 1) off it) or
// structurally zero, solved for b = A·1 at P 2 and 4. Neither kind wins a
// cell: on the weak diagonal both run to the iteration cap (Block 2P pivots,
// so its residuals differ from Block 2's, and stay near 0.9), and on the
// shifted system every subdomain block has a row with no entry but its zero
// diagonal, which no column pivot can repair, so both fail in set-up.
func TestBlock2PWeakDiagonalCells(t *testing.T) {
	// weakDiagonal and shiftedSystem are internal/ilu's generators of the
	// same names (pool_test.go, ilutp_test.go).
	weakDiagonal := func(rng *rand.Rand, n int, density float64) *sparse.CSR {
		coo := sparse.NewCOO(n, n, int(float64(n*n)*density)+n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 0.1*rng.NormFloat64())
			for j := 0; j < n; j++ {
				if j != i && rng.Float64() < density {
					coo.Add(i, j, rng.NormFloat64())
				}
			}
		}
		return coo.ToCSR()
	}
	shiftedSystem := func(n int) *sparse.CSR {
		coo := sparse.NewCOO(n, n, 2*n)
		for i := 0; i < n; i++ {
			coo.Add(i, (i+1)%n, 5)
			coo.Add(i, (i+3)%n, 0.5)
			coo.Add(i, i, 0)
		}
		return coo.ToCSR()
	}
	matrices := []struct {
		name       string
		a          *sparse.CSR
		setupFails bool
	}{
		{"weakDiagonal(31, 300, 0.03)", weakDiagonal(rand.New(rand.NewSource(31)), 300, 0.03), false},
		{"shiftedSystem(200)", shiftedSystem(200), true},
	}
	for _, m := range matrices {
		ones := make([]float64, m.a.Rows)
		for i := range ones {
			ones[i] = 1
		}
		prob := &core.Problem{Name: m.name, A: m.a, B: m.a.MulVec(ones)}
		for _, p := range []int{2, 4} {
			var residuals []float64
			for _, kind := range []precond.Kind{precond.KindBlock2, precond.KindBlock2P} {
				cfg := core.DefaultConfig(p, kind)
				res, err := core.Solve(prob, cfg)
				if m.setupFails {
					if err == nil || !strings.Contains(err.Error(), "structurally zero") {
						t.Errorf("%s P %d %s: error %v, want a structurally zero row in set-up", m.name, p, kind, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s P %d %s: %v", m.name, p, kind, err)
				}
				t.Logf("%s P %d %s: converged %v after %d iterations, residual %.2e, modeled %.4f s",
					m.name, p, kind, res.Converged, res.Iterations, res.Residual, res.SetupTime+res.SolveTime)
				if res.Converged || res.Iterations != cfg.Solver.MaxIters {
					t.Errorf("%s P %d %s: converged %v after %d iterations, want n.c. at %d",
						m.name, p, kind, res.Converged, res.Iterations, cfg.Solver.MaxIters)
				}
				residuals = append(residuals, res.Residual)
			}
			if len(residuals) == 2 && residuals[0] == residuals[1] {
				t.Errorf("%s P %d: Block 2P ends on Block 2's residual %v: it never pivoted", m.name, p, residuals[0])
			}
		}
	}
}
