// Schwarz example: reproduces the paper's §5.2 comparison on Test Case 1.
// The overlapping additive Schwarz preconditioner (box subdomains, ~5%
// overlap, one FFT-accelerated CG iteration per subdomain) is run with
// and without coarse-grid corrections, next to the best algebraic
// preconditioner (Schur 1). Without CGC the Schwarz iteration count grows
// rapidly with P; with CGC it is the fastest-converging method of the
// study.
package main

import (
	"fmt"
	"log"

	"parapre"
)

func main() {
	const size = 65
	prob := parapre.BuildCase("tc1-poisson2d", size)
	fmt.Printf("Poisson 2D, %d unknowns — additive Schwarz vs Schur 1\n\n", prob.A.Rows)

	fmt.Printf("%-4s | %-22s | %-22s | %-22s\n", "P", "AddSchwarz (no CGC)", "AddSchwarz + CGC", "Schur 1")
	for _, layout := range []struct{ p, px, py int }{{4, 2, 2}, {16, 4, 4}} {
		fmt.Printf("%-4d", layout.p)
		for _, mode := range []string{"plain", "cgc", "schur"} {
			var cfg parapre.Config
			if mode == "schur" {
				cfg = parapre.DefaultConfig(layout.p, parapre.Schur1)
			} else {
				cfg = parapre.DefaultConfig(layout.p, parapre.None)
				sw := parapre.DefaultSchwarz(size, layout.px, layout.py, mode == "cgc")
				cfg.Schwarz = &sw
			}
			res, err := parapre.Solve(prob, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" | %4d itr %9.4fs   ", res.Iterations, res.SetupTime+res.SolveTime)
		}
		fmt.Println()
	}
}
