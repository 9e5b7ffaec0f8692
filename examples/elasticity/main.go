// Elasticity example: the paper's toughest case — the displacement field
// of a quarter ring under a downward volume load (Test Case 6, two
// unknowns per node). The block preconditioners struggle here while the
// Schur-complement-enhanced ones stay robust; the example also reports
// physical solution statistics so the discretization itself can be
// sanity-checked.
package main

import (
	"fmt"
	"log"
	"math"

	"parapre"
)

func main() {
	const size = 33
	prob := parapre.BuildCase("tc6-elasticity", size)
	fmt.Printf("linear elasticity, quarter ring, %d nodes × 2 dof = %d unknowns\n\n",
		prob.Mesh.NumNodes(), prob.A.Rows)

	const p = 8
	for _, kind := range []parapre.Kind{parapre.Schur1, parapre.Schur2, parapre.Block1, parapre.Block2} {
		cfg := parapre.DefaultConfig(p, kind)
		cfg.Solver.MaxIters = 400
		cfg.KeepX = true
		res, err := parapre.Solve(prob, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Converged {
			fmt.Printf("%-8s did not converge within %d iterations (the paper reports the same trouble for the block preconditioners)\n",
				kind, cfg.Solver.MaxIters)
			continue
		}
		maxDisp := 0.0
		for n := 0; n < prob.Mesh.NumNodes(); n++ {
			d := math.Hypot(res.X[2*n], res.X[2*n+1])
			if d > maxDisp {
				maxDisp = d
			}
		}
		fmt.Printf("%-8s %3d iterations, %.3fs modeled, max displacement %.4f\n",
			kind, res.Iterations, res.SetupTime+res.SolveTime, maxDisp)
	}
}
