// Convection example: the paper's hardest 2D case — convection-dominated
// flow (|v| = 1000, Test Case 5) — solved with all four parallel algebraic
// preconditioners across a processor sweep. It reproduces the paper's
// qualitative finding for this case: Schur 1 is the clear winner in
// overall efficiency, while the block preconditioners need many more
// iterations as P grows.
package main

import (
	"fmt"
	"log"

	"parapre"
)

func main() {
	const size = 65
	prob := parapre.BuildCase("tc5-convdiff", size)
	fmt.Printf("convection-diffusion, |v|=1000 at 45°, SUPG, %d unknowns\n\n", prob.A.Rows)

	kinds := []parapre.Kind{parapre.Schur1, parapre.Schur2, parapre.Block1, parapre.Block2}
	fmt.Printf("%-4s", "P")
	for _, k := range kinds {
		fmt.Printf(" | %-16s", k)
	}
	fmt.Println()
	for _, p := range []int{2, 4, 8, 16} {
		fmt.Printf("%-4d", p)
		for _, k := range kinds {
			cfg := parapre.DefaultConfig(p, k)
			res, err := parapre.Solve(prob, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if res.Converged {
				fmt.Printf(" | %4d itr %6.3fs", res.Iterations, res.SetupTime+res.SolveTime)
			} else {
				fmt.Printf(" | %-16s", "not converged")
			}
		}
		fmt.Println()
	}
}
