package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"parapre/internal/core"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// weakDiagonal is a random matrix whose diagonal is a tenth the size of
// its off-diagonal entries (internal/ilu's generator of the same name).
func weakDiagonal(rng *rand.Rand, n int, density float64) *sparse.CSR {
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

// shiftedSystem is a circulant shift with a structurally zero diagonal
// (internal/ilu's generator of the same name).
func shiftedSystem(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		coo.Add(i, (i+1)%n, 5)
		coo.Add(i, (i+3)%n, 0.5)
		coo.Add(i, i, 0)
	}
	return coo.ToCSR()
}

// saddle is the saddle-point matrix [A Bᵀ; B −εI] with its unknowns
// interleaved (u₀, p₀, u₁, p₁, …): A is the m×m five-point Laplacian (4
// and −1) and B the forward x-difference within a grid row, so the p_i row
// holds −1 at u_i and +1 at u_{i+1}, and every pressure row's diagonal is
// −ε.
func saddle(m int, eps float64) *sparse.CSR {
	coo := sparse.NewCOO(2*m*m, 2*m*m, 10*m*m)
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			i := y*m + x
			u, p := 2*i, 2*i+1
			coo.Add(u, u, 4)
			if x > 0 {
				coo.Add(u, u-2, -1)
			}
			if x < m-1 {
				coo.Add(u, u+2, -1)
			}
			if y > 0 {
				coo.Add(u, u-2*m, -1)
			}
			if y < m-1 {
				coo.Add(u, u+2*m, -1)
			}
			coo.Add(p, u, -1)
			coo.Add(u, p, -1)
			if x < m-1 {
				coo.Add(p, u+2, 1)
				coo.Add(u+2, p, 1)
			}
			coo.Add(p, p, -eps)
		}
	}
	return coo.ToCSR()
}

// TestWeakDiagonalCells pins the cells DESIGN §10 removed Block 2P on:
// b = A·1 on matrices whose diagonals are weak or zero. Each converged row
// is the fastest configuration of its cell, and on every saddle cell that
// is Block 1 or 2 with RCM or overlap, not plain Block 2; column-pivoting
// subdomain factors beat none of them. The n.c. and set-up-error rows keep
// the inputs pivoting was for covered through the kinds that remain.
func TestWeakDiagonalCells(t *testing.T) {
	rcm := func(cfg *core.Config) { cfg.RCM = true }
	overlap2 := func(cfg *core.Config) { cfg.OverlapLevels = 2 }
	type outcome struct {
		converged  bool
		iterations int    // 0: the cap, cfg.Solver.MaxIters
		setupErr   string // a substring of the set-up error, "" for none
	}
	table := []struct {
		name string
		a    *sparse.CSR
		p    int
		kind precond.Kind
		cfg  func(*core.Config)
		want outcome
	}{
		{"saddle(20,1e-3)/P2/Block 2+overlap 2", saddle(20, 1e-3), 2, precond.KindBlock2, overlap2, outcome{true, 38, ""}},
		{"saddle(30,1e-3)/P2/Block 2+RCM", saddle(30, 1e-3), 2, precond.KindBlock2, rcm, outcome{true, 84, ""}},
		{"saddle(40,1e-3)/P2/Block 1+RCM", saddle(40, 1e-3), 2, precond.KindBlock1, rcm, outcome{true, 64, ""}},
		{"saddle(30,1e-2)/P2/Block 2+RCM", saddle(30, 1e-2), 2, precond.KindBlock2, rcm, outcome{true, 35, ""}},
		{"saddle(30,1e-3)/P4/Block 2+overlap 2", saddle(30, 1e-3), 4, precond.KindBlock2, overlap2, outcome{true, 96, ""}},
		{"saddle(30,1e-2)/P4/Block 2+overlap 2", saddle(30, 1e-2), 4, precond.KindBlock2, overlap2, outcome{true, 52, ""}},
		{"saddle(20,1e-3)/P4/Block 2+overlap 2", saddle(20, 1e-3), 4, precond.KindBlock2, overlap2, outcome{true, 58, ""}},
		{"saddle(40,1e-3)/P4/Block 2+RCM", saddle(40, 1e-3), 4, precond.KindBlock2, rcm, outcome{true, 260, ""}},
		{"saddle(30,1e-4)/P2/Block 1+RCM", saddle(30, 1e-4), 2, precond.KindBlock1, rcm, outcome{true, 151, ""}},
		{"saddle(30,1e-4)/P4/Block 1+RCM", saddle(30, 1e-4), 4, precond.KindBlock1, rcm, outcome{false, 0, ""}},
		{"weakDiagonal(31,300,0.03)/P2/Block 2", weakDiagonal(rand.New(rand.NewSource(31)), 300, 0.03), 2, precond.KindBlock2, nil, outcome{false, 0, ""}},
		{"weakDiagonal(31,300,0.03)/P4/Block 2", weakDiagonal(rand.New(rand.NewSource(31)), 300, 0.03), 4, precond.KindBlock2, nil, outcome{false, 0, ""}},
		{"shiftedSystem(200)/P2/Block 2", shiftedSystem(200), 2, precond.KindBlock2, nil, outcome{false, 0, "structurally zero"}},
		{"shiftedSystem(200)/P4/Block 2", shiftedSystem(200), 4, precond.KindBlock2, nil, outcome{false, 0, "structurally zero"}},
		// None of these is SPD: IC(0) repairs pivots on each, and Block IC
		// refuses the factor at set-up.
		{"saddle(20,1e-3)/P2/Block IC", saddle(20, 1e-3), 2, precond.KindBlockIC, nil, outcome{false, 0, "Block IC rank 0: ilu: IC0: pivot of row 1 is not positive"}},
		{"weakDiagonal(31,300,0.03)/P2/Block IC", weakDiagonal(rand.New(rand.NewSource(31)), 300, 0.03), 2, precond.KindBlockIC, nil, outcome{false, 0, "Block IC rank 0: ilu: IC0: pivot of row 0 is not positive"}},
		{"tc5-convdiff@33/P4/Block IC", buildProblem(t, "tc5-convdiff", 33).A, 4, precond.KindBlockIC, nil, outcome{false, 0, "Block IC rank 0: ilu: IC0: pivot of row 8 is not positive"}},
	}
	for _, tt := range table {
		t.Run(tt.name, func(t *testing.T) {
			ones := make([]float64, tt.a.Rows)
			for i := range ones {
				ones[i] = 1
			}
			prob := &core.Problem{Name: tt.name, A: tt.a, B: tt.a.MulVec(ones)}
			cfg := core.DefaultConfig(tt.p, tt.kind)
			if tt.cfg != nil {
				tt.cfg(&cfg)
			}
			res, err := core.Solve(prob, cfg)
			if tt.want.setupErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.want.setupErr) {
					t.Fatalf("error %v, want a set-up error naming %q", err, tt.want.setupErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tt.want.iterations
			if want == 0 {
				want = cfg.Solver.MaxIters
			}
			if res.Converged != tt.want.converged || res.Iterations != want {
				t.Errorf("converged %v after %d iterations, want %v after %d", res.Converged, res.Iterations, tt.want.converged, want)
			}
		})
	}
}
