package precond

import (
	"testing"

	"parapre/internal/dsys"
	"parapre/internal/ilu"
)

// TestCGCHelpsAtLargerP reproduces the §5.2 trend at reduced scale: with
// many subdomains, the coarse-grid correction must reduce the additive
// Schwarz iteration count (the paper reports a "dangerously rapid growth"
// without CGCs).
func TestCGCHelpsAtLargerP(t *testing.T) {
	const m, px, py = 49, 4, 4
	const p = px * py
	systems, a, _ := buildPoissonBoxes(t, m, px, py)
	run := func(cgc bool) int {
		all := make([]*Schwarz, p)
		for r := 0; r < p; r++ {
			sw, err := NewSchwarz(systems[r], a, DefaultSchwarz(m, px, py, cgc))
			if err != nil {
				t.Fatal(err)
			}
			all[r] = sw
		}
		if err := WireHalo(all); err != nil {
			t.Fatal(err)
		}
		it, _ := solveWith(t, systems, p, func(s *dsys.System) Preconditioner { return all[s.Rank] })
		return it
	}
	plain, cgc := run(false), run(true)
	t.Logf("P=16 m=49: plain=%d cgc=%d", plain, cgc)
	if cgc >= plain {
		t.Fatalf("CGC did not help at P=16: %d vs %d", cgc, plain)
	}
}

// TestOverlapBlockImprovesOnPlainBlock exercises the §1.1 extension: an
// overlapping restricted-additive-Schwarz block preconditioner must not
// converge slower than the non-overlapping block Jacobi it generalizes,
// and levels=0 must behave like the plain preconditioner.
func TestOverlapBlockImprovesOnPlainBlock(t *testing.T) {
	const m, p = 21, 4
	systems, a, b := buildPoisson(t, m, p, 21)
	want := refSolution(t, a, b)

	run := func(levels int) (int, []float64) {
		obs, err := BuildOverlapBlocks(a, systems, OverlapOptions{
			Levels: levels, UseILU0: false, ILUT: ilu.DefaultILUT(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return solveWith(t, systems, p, func(s *dsys.System) Preconditioner { return obs[s.Rank] })
	}

	itPlainBlock, _ := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
		pc, err := NewBlock2(s, ilu.DefaultILUT())
		if err != nil {
			t.Fatal(err)
		}
		return pc
	})
	it0, x0 := run(0)
	checkClose(t, x0, want, 2e-4, "overlap-0")
	it2, x2 := run(2)
	checkClose(t, x2, want, 2e-4, "overlap-2")

	t.Logf("plain block=%d, overlap0=%d, overlap2=%d", itPlainBlock, it0, it2)
	if it0 != itPlainBlock {
		t.Errorf("levels=0 (%d iters) differs from plain Block 2 (%d)", it0, itPlainBlock)
	}
	if it2 >= it0 {
		t.Errorf("overlap did not improve convergence: %d vs %d", it2, it0)
	}
}

// TestOverlapBlockExtSizes checks that growing levels strictly enlarges
// the factored blocks (until the subdomain swallows the domain).
func TestOverlapBlockExtSizes(t *testing.T) {
	const m, p = 15, 3
	systems, a, _ := buildPoisson(t, m, p, 22)
	prev := make([]int, p)
	for levels := 0; levels <= 2; levels++ {
		obs, err := BuildOverlapBlocks(a, systems, OverlapOptions{
			Levels: levels, UseILU0: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, ob := range obs {
			owned, total := ob.ExtSize()
			if owned != systems[r].NLoc() {
				t.Fatalf("rank %d: owned %d != NLoc %d", r, owned, systems[r].NLoc())
			}
			if levels > 0 && total <= prev[r] {
				t.Fatalf("rank %d: levels=%d total %d did not grow beyond %d", r, levels, total, prev[r])
			}
			prev[r] = total
			if ob.SetupFlops() <= 0 {
				t.Fatal("SetupFlops")
			}
			if ob.Name() == "" {
				t.Fatal("Name")
			}
		}
	}
}
