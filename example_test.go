package parapre_test

import (
	"fmt"

	"parapre"
)

// ExampleSolve reproduces a single cell of the paper's Test-Case-1 table:
// iteration count of the Schur 1 preconditioner at P = 4.
func ExampleSolve() {
	prob := parapre.BuildCase("tc1-poisson2d", 33)
	cfg := parapre.DefaultConfig(4, parapre.Schur1)
	res, err := parapre.Solve(prob, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Converged, res.Iterations)
	// Output: true 7
}

// ExampleNewSession shows the setup-once/solve-many pattern for implicit
// time stepping: the second solve reuses the partition and the factored
// preconditioners.
func ExampleNewSession() {
	prob := parapre.BuildCase("tc1-poisson2d", 17)
	sess, err := parapre.NewSession(prob, parapre.DefaultConfig(2, parapre.Block2))
	if err != nil {
		panic(err)
	}
	r1, _ := sess.Solve(nil) // the case's own right-hand side
	b2 := make([]float64, prob.A.Rows)
	for i := range b2 {
		b2[i] = 1
	}
	r2, _ := sess.Solve(b2) // a different right-hand side, same setup
	fmt.Println(r1.Converged, r2.Converged)
	// Output: true true
}

// ExampleExperimentByID regenerates one row of a paper table.
func ExampleExperimentByID() {
	e, err := parapre.ExperimentByID("shape")
	if err != nil {
		panic(err)
	}
	e.Ps = []int{4}
	tables, err := e.Run(9) // tiny size for the example
	if err != nil {
		panic(err)
	}
	fmt.Println(len(tables), tables[0].Columns[0])
	// Output: 2 Schur 1
}

// ExampleAssembleScalar solves a problem of one's own: a convection–
// diffusion equation assembled on the plate-with-hole grid, u = 0 on the
// whole boundary, wrapped in a Problem and solved with Schur 1 at P = 4.
// It prints the unknowns, whether the solve converged, and its iterations.
func ExampleAssembleScalar() {
	g := parapre.PlateWithHole(25)
	a, b := parapre.AssembleScalar(g, parapre.ScalarPDE{
		Diffusion: 1,
		Velocity:  []float64{50, 20},
		SUPG:      true,
		Source:    func(x []float64) float64 { return 1 },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	parapre.ApplyDirichlet(a, b, bc)
	prob := &parapre.Problem{Name: "convdiff-hole", A: a, B: b, Mesh: g, DofsPerNode: 1}
	res, err := parapre.Solve(prob, parapre.DefaultConfig(4, parapre.Schur1))
	if err != nil {
		panic(err)
	}
	fmt.Println(a.Rows, res.Converged, res.Iterations)
	// Output: 536 true 4
}
