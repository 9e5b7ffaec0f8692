// Custom-PDE example: the library is not limited to the paper's six test
// cases. This example discretizes its own PDE — a convection–diffusion
// problem with a rotating velocity would need variable coefficients, so
// here we take a strongly skewed constant flow over the plate-with-hole
// unstructured grid — wraps the assembled system in a Problem, and
// compares the preconditioners on it.
package main

import (
	"fmt"
	"log"
	"math"

	"parapre"
)

func main() {
	// 1. Build an unstructured grid and discretize a custom PDE on it.
	g := parapre.PlateWithHole(49)
	vel := []float64{200 * math.Cos(0.2), 200 * math.Sin(0.2)}
	a, b := parapre.AssembleScalar(g, parapre.ScalarPDE{
		Diffusion: 1,
		Velocity:  vel,
		SUPG:      true,
		Source:    func(x []float64) float64 { return 1 },
	})

	// 2. Boundary conditions: u = 0 everywhere on the boundary (outer
	//    square and hole rim).
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	parapre.ApplyDirichlet(a, b, bc)

	// 3. Wrap as a Problem and solve with each preconditioner.
	prob := &parapre.Problem{Name: "custom-convdiff-hole", A: a, B: b, Mesh: g, DofsPerNode: 1}
	fmt.Printf("custom PDE on plate-with-hole: %d unknowns, |v| = 200\n\n", a.Rows)
	for _, kind := range []parapre.Kind{parapre.Schur1, parapre.Schur2, parapre.Block1, parapre.Block2} {
		cfg := parapre.DefaultConfig(8, kind)
		res, err := parapre.Solve(prob, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %3d iterations, %.4fs modeled (converged=%v)\n",
			kind, res.Iterations, res.SetupTime+res.SolveTime, res.Converged)
	}
}
