package cases

import (
	"math"
	"testing"

	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

func isSym(a *sparse.CSR, tol float64) bool {
	at := a.Transpose()
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j32 := range cols {
			j := int(j32)
			if math.Abs(vals[k]-at.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

func TestAllCasesAssembleAndMatchMetadata(t *testing.T) {
	for _, c := range All() {
		p := c.Build(c.DefaultSize)
		if err := p.A.CheckValid(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if p.A.Rows != len(p.B) {
			t.Fatalf("%s: rhs length mismatch", c.Name)
		}
		dpn := p.DofsPerNode
		if dpn == 0 {
			dpn = 1
		}
		if p.A.Rows != p.Mesh.NumNodes()*dpn {
			t.Fatalf("%s: %d rows for %d nodes × %d dof", c.Name, p.A.Rows, p.Mesh.NumNodes(), dpn)
		}
		if got := isSym(p.A, 1e-10); got != c.SPD {
			t.Fatalf("%s: symmetry = %v, metadata says SPD = %v", c.Name, got, c.SPD)
		}
		if p.Name != c.Name {
			t.Fatalf("problem name %q != case name %q", p.Name, c.Name)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("tc5-convdiff")
	if err != nil || c.ID != 5 {
		t.Fatalf("ByName: %v %v", c, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// solveSmall solves a case at tiny size with tight sequential GMRES and
// returns the solution.
func solveSmall(t *testing.T, c Case, size int) []float64 {
	t.Helper()
	p := c.Build(size)
	x := make([]float64, p.A.Rows)
	res := krylov.SolveCSR(p.A, nil, p.B, x, krylov.Options{Restart: 60, MaxIters: 30000, Tol: 1e-11})
	if !res.Converged {
		t.Fatalf("%s: solve failed: %+v", c.Name, res)
	}
	return x
}

func TestPoisson2DManufacturedSolution(t *testing.T) {
	c, _ := ByName("tc1-poisson2d")
	p := c.Build(17)
	x := solveSmall(t, c, 17)
	var maxErr float64
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		e := math.Abs(x[n] - exact2D(p.Mesh.Coord(n)))
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("tc1 discretization error %v too large", maxErr)
	}
}

func TestPoisson3DManufacturedSolution(t *testing.T) {
	c, _ := ByName("tc2-poisson3d")
	p := c.Build(7)
	x := solveSmall(t, c, 7)
	var maxErr float64
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		e := math.Abs(x[n] - exact3D(p.Mesh.Coord(n)))
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-3 {
		t.Fatalf("tc2 discretization error %v too large", maxErr)
	}
}

func TestHeatStepContractsAndStaysBounded(t *testing.T) {
	c, _ := ByName("tc4-heat3d")
	p := c.Build(7)
	x := solveSmall(t, c, 7)
	// One implicit heat step from u⁰ ∈ [0,1] must stay within [−ε, 1+ε]
	// (discrete maximum principle holds approximately for this mesh).
	for i, v := range x {
		if v < -0.05 || v > 1.05 {
			t.Fatalf("heat step out of bounds at %d: %v", i, v)
		}
	}
	// And the Dirichlet face x=1 must be exactly zero.
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		if p.Mesh.Coord(n)[0] == 1 && x[n] != 0 {
			t.Fatalf("Dirichlet face violated at node %d: %v", n, x[n])
		}
	}
}

func TestConvDiffSolutionWithinBCRange(t *testing.T) {
	c, _ := ByName("tc5-convdiff")
	x := solveSmall(t, c, 17)
	for i, v := range x {
		if v < -0.2 || v > 1.2 {
			t.Fatalf("convection solution wildly out of range at %d: %v (SUPG broken?)", i, v)
		}
	}
}

func TestElasticityRespectsSymmetryConstraints(t *testing.T) {
	c, _ := ByName("tc6-elasticity")
	p := c.Build(9)
	x := solveSmall(t, c, 9)
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		crd := p.Mesh.Coord(n)
		if math.Abs(crd[0]) < 1e-12 && x[2*n] != 0 {
			t.Fatalf("u1 != 0 on Γ1 at node %d", n)
		}
		if math.Abs(crd[1]) < 1e-12 && x[2*n+1] != 0 {
			t.Fatalf("u2 != 0 on Γ2 at node %d", n)
		}
	}
	// The downward load must push the ring down: mean u2 < 0.
	var mean float64
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		mean += x[2*n+1]
	}
	mean /= float64(p.Mesh.NumNodes())
	if mean >= 0 {
		t.Fatalf("mean vertical displacement %v, want negative under downward load", mean)
	}
}

func TestPaperSizesDocumented(t *testing.T) {
	want := map[int]int{1: 1001, 2: 101, 3: 723, 4: 101, 5: 1001, 6: 241, 7: 0}
	for _, c := range All() {
		if c.PaperSize != want[c.ID] {
			t.Fatalf("case %d paper size %d, want %d", c.ID, c.PaperSize, want[c.ID])
		}
	}
	// Paper-scale unknown counts for the structured cases.
	if n := 1001 * 1001; n != 1002001 {
		t.Fatal("tc1 size")
	}
	if n := 101 * 101 * 101; n != 1030301 {
		t.Fatal("tc2 size")
	}
}

func TestHeatMultiStepDecayRate(t *testing.T) {
	// Extension of Test Case 4: several implicit steps on the 2D-mode
	// initial condition must decay close to the continuous rate
	// e^{−2π²Δt} per step (implicit Euler damps slightly faster). This
	// validates both M and K assembly jointly.
	const size = 9
	const dt = 0.05
	c, _ := ByName("tc4-heat3d")
	p := c.Build(size)
	// Solve one step via the assembled case, then continue manually with
	// the same operators rebuilt here for stepping.
	x := solveSmall(t, c, size)
	// u⁰ at the midplane center line: compare the damping of the max.
	var max0, max1 float64
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		crd := p.Mesh.Coord(n)
		u0 := math.Sin(math.Pi*crd[0]) * math.Sin(math.Pi*crd[1])
		if u0 > max0 {
			max0 = u0
		}
		if x[n] > max1 {
			max1 = x[n]
		}
	}
	ratio := max1 / max0
	// Continuous decay for the (1,1,·) mode in one step; the Dirichlet
	// face at x=1 only strengthens the damping. Implicit Euler gives
	// 1/(1+2π²Δt) ≈ 0.50 at Δt=0.05.
	implicit := 1 / (1 + 2*math.Pi*math.Pi*dt)
	if ratio > implicit*1.25 || ratio < implicit*0.4 {
		t.Fatalf("one-step damping ratio %.3f, expected near %.3f", ratio, implicit)
	}
}

func TestConvDiffLayerPosition(t *testing.T) {
	// The discontinuity enters at (0, 0.25) and is convected at 45°; on
	// the outflow boundary x=1 the jump should sit near y = 1 (0.25 + 1
	// clipped) — so the top-right corner region is ≈1 and the bottom-right
	// is ≈0.
	c, _ := ByName("tc5-convdiff")
	p := c.Build(21)
	x := solveSmall(t, c, 21)
	g := p.Mesh
	var bottomRight, topLeftInterior float64
	for n := 0; n < g.NumNodes(); n++ {
		crd := g.Coord(n)
		if crd[0] == 1 && crd[1] == 0.25 {
			bottomRight = x[n]
		}
		if crd[0] == 0.5 && crd[1] == 1 {
			topLeftInterior = x[n]
		}
	}
	if bottomRight > 0.3 {
		t.Fatalf("below-layer outflow value %v, want ≈0", bottomRight)
	}
	if topLeftInterior < 0.7 {
		t.Fatalf("above-layer value %v, want ≈1", topLeftInterior)
	}
}

func TestCaseSizesGrowCorrectly(t *testing.T) {
	for _, c := range All() {
		small := c.Build(c.DefaultSize)
		// Elasticity size is mr=mt; others vary; just check monotonicity.
		bigger := c.Build(c.DefaultSize + 4)
		if bigger.A.Rows <= small.A.Rows {
			t.Fatalf("%s: size +4 did not grow the system (%d -> %d)", c.Name, small.A.Rows, bigger.A.Rows)
		}
		// Unknowns is the closed form of what Build assembles — for tc3 an
		// upper bound, the lattice before the hole is carved out of it.
		for _, b := range []struct {
			size int
			rows int
		}{{c.DefaultSize, small.A.Rows}, {c.DefaultSize + 4, bigger.A.Rows}} {
			got := c.Unknowns(b.size)
			if c.Name == "tc3-unstructured" {
				if got < b.rows || got > b.rows*5/4 {
					t.Errorf("%s: Unknowns(%d) = %d, want between the %d assembled and a quarter more", c.Name, b.size, got, b.rows)
				}
			} else if got != b.rows {
				t.Errorf("%s: Unknowns(%d) = %d, Build assembles %d", c.Name, b.size, got, b.rows)
			}
		}
		// A size the grid generators panic on has no unknowns, a size whose
		// count does not fit an int saturates.
		if got := c.Unknowns(1); got != 0 {
			t.Errorf("%s: Unknowns(1) = %d, want 0", c.Name, got)
		}
		if got := c.Unknowns(math.MaxInt32 * 4); got != math.MaxInt {
			t.Errorf("%s: Unknowns(2³³) = %d, want MaxInt", c.Name, got)
		}
	}
}

func TestJumpCaseFluxBehavior(t *testing.T) {
	// In the high-k inclusion the solution must be much flatter than
	// outside (large k ⇒ small gradient): compare the solution range in
	// the inner box against the global range.
	c, _ := ByName("tc7-jump")
	p := c.Build(21)
	x := solveSmall(t, c, 21)
	var inMin, inMax, gMax float64
	inMin = math.Inf(1)
	inMax = math.Inf(-1)
	for n := 0; n < p.Mesh.NumNodes(); n++ {
		crd := p.Mesh.Coord(n)
		v := x[n]
		if v > gMax {
			gMax = v
		}
		if crd[0] > 0.3 && crd[0] < 0.7 && crd[1] > 0.3 && crd[1] < 0.7 {
			if v < inMin {
				inMin = v
			}
			if v > inMax {
				inMax = v
			}
		}
	}
	if gMax <= 0 {
		t.Fatal("solution not positive")
	}
	if (inMax-inMin)/gMax > 0.1 {
		t.Fatalf("inclusion not flat: range %.3f of global max %.3f", inMax-inMin, gMax)
	}
}
