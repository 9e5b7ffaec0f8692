// Heat-simulation example: the paper's Test Case 4 runs a single implicit
// time step; a real simulation runs many. This example integrates the 2D
// heat equation u_t = ∇²u over 20 implicit Euler steps with homogeneous
// Dirichlet boundaries, reusing one Session (partition + Schur 1
// preconditioner built once) for every step, and checks the computed
// decay of the fundamental mode against the exact rate e^{−2π²t}.
package main

import (
	"fmt"
	"log"
	"math"

	"parapre"
)

func main() {
	const (
		m     = 49
		dt    = 0.002
		steps = 20
	)
	g := parapre.UnitSquareTri(m)

	// A = M + Δt·K with u = 0 on the whole boundary.
	a, mass := parapre.HeatStep(g, dt)
	n := a.Rows
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for node := 0; node < n; node++ {
		if onB[node] {
			bc[node] = 0
		}
	}
	rhs := make([]float64, n)
	parapre.ApplyDirichlet(a, rhs, bc)

	prob := &parapre.Problem{Name: "heatsim", A: a, B: rhs, Mesh: g, DofsPerNode: 1}
	cfg := parapre.DefaultConfig(8, parapre.Schur1)
	cfg.KeepX = true
	sess, err := parapre.NewSession(prob, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2D heat equation, %d unknowns, Δt = %g, 8 processors, one-time setup %.4fs (modeled)\n\n",
		n, dt, sess.SetupTime())

	// Initial condition: fundamental mode sin(πx)sin(πy), which decays as
	// e^{−2π²t}.
	u := make([]float64, n)
	for node := 0; node < n; node++ {
		c := g.Coord(node)
		u[node] = math.Sin(math.Pi*c[0]) * math.Sin(math.Pi*c[1])
	}
	center := (m/2)*m + m/2

	fmt.Printf("%-6s %-10s %-10s %-8s %-10s\n", "step", "t", "u(center)", "#itr", "exact")
	b := make([]float64, n)
	var totalTime float64
	for s := 1; s <= steps; s++ {
		mass.MulVecTo(b, u)
		for node := range bc {
			b[node] = 0
		}
		res, err := sess.Solve(b)
		if err != nil {
			log.Fatal(err)
		}
		u = res.X
		totalTime += res.SolveTime
		exact := math.Exp(-2 * math.Pi * math.Pi * dt * float64(s))
		if s%4 == 0 || s == 1 {
			fmt.Printf("%-6d %-10.4f %-10.6f %-8d %-10.6f\n",
				s, dt*float64(s), u[center], res.Iterations, exact)
		}
	}
	fmt.Printf("\ntotal modeled solve time over %d steps: %.4fs\n", steps, totalTime)
	want := math.Exp(-2 * math.Pi * math.Pi * dt * steps)
	fmt.Printf("final center value %.6f vs exact %.6f (implicit Euler damps slightly faster)\n",
		u[center], want)
}
