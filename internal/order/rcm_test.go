package order

import (
	"math/rand"
	"testing"

	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

func poisson(t testing.TB, m int) (*sparse.CSR, []float64) {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Source: func(x []float64) float64 { return 1 }})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return a, b
}

func TestRCMIsValidPermutation(t *testing.T) {
	a, _ := poisson(t, 15)
	p := RCM(a)
	if !p.IsValid() {
		t.Fatal("RCM produced an invalid permutation")
	}
}

func TestRCMReducesBandwidthAfterShuffle(t *testing.T) {
	// Scramble a banded matrix, then RCM must recover a small bandwidth.
	a, _ := poisson(t, 15)
	rng := rand.New(rand.NewSource(1))
	shuffle := randPerm(rng, a.Rows)
	scrambled := sparse.PermuteSym(a, shuffle)
	before := Bandwidth(scrambled)
	p := RCM(scrambled)
	after := Bandwidth(sparse.PermuteSym(scrambled, p))
	if after*3 > before {
		t.Fatalf("RCM bandwidth %d not clearly better than scrambled %d", after, before)
	}
	// And it should be close to the natural-band ordering of the grid.
	if natural := Bandwidth(a); after > 3*natural {
		t.Fatalf("RCM bandwidth %d far from natural %d", after, natural)
	}
}

func TestRCMReducesProfile(t *testing.T) {
	a, _ := poisson(t, 13)
	rng := rand.New(rand.NewSource(2))
	scrambled := sparse.PermuteSym(a, randPerm(rng, a.Rows))
	p := RCM(scrambled)
	if got, was := Profile(sparse.PermuteSym(scrambled, p)), Profile(scrambled); got >= was {
		t.Fatalf("RCM profile %d ≥ scrambled %d", got, was)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	// Two disjoint 2-cliques plus an isolated vertex.
	coo := sparse.NewCOO(5, 5, 10)
	for i := 0; i < 5; i++ {
		coo.Add(i, i, 1)
	}
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 3, 1)
	coo.Add(3, 2, 1)
	p := RCM(coo.ToCSR())
	if !p.IsValid() {
		t.Fatal("invalid permutation on disconnected graph")
	}
}

func TestRCMImprovesILUTQuality(t *testing.T) {
	// At fixed small lfil, the RCM-ordered factorization should
	// precondition at least as well as a randomly scrambled ordering.
	a, b := poisson(t, 21)
	rng := rand.New(rand.NewSource(3))
	scramble := randPerm(rng, a.Rows)
	scrambled := sparse.PermuteSym(a, scramble)
	bs := scramble.ApplyVec(b)

	iters := func(m *sparse.CSR, rhs []float64) int {
		f, err := ilu.ILUT(m, ilu.ILUTOptions{Tau: 1e-2, LFil: 3})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, m.Rows)
		res := krylov.SolveCSR(m, func(z, r []float64) { f.Solve(z, r) }, rhs, x,
			krylov.Options{Restart: 30, MaxIters: 600, Tol: 1e-8})
		if !res.Converged {
			return 600
		}
		return res.Iterations
	}
	p := RCM(scrambled)
	ordered := sparse.PermuteSym(scrambled, p)
	bo := p.ApplyVec(bs)
	itScrambled := iters(scrambled, bs)
	itRCM := iters(ordered, bo)
	t.Logf("scrambled=%d rcm=%d", itScrambled, itRCM)
	if itRCM > itScrambled {
		t.Fatalf("RCM ordering worsened ILUT preconditioning: %d vs %d", itRCM, itScrambled)
	}
}

func TestBandwidthAndProfileBasics(t *testing.T) {
	a := sparse.Identity(4)
	if Bandwidth(a) != 0 || Profile(a) != 0 {
		t.Fatal("identity bandwidth/profile")
	}
	coo := sparse.NewCOO(4, 4, 5)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 1)
	}
	coo.Add(3, 0, 1)
	m := coo.ToCSR()
	if Bandwidth(m) != 3 {
		t.Fatalf("bandwidth %d, want 3", Bandwidth(m))
	}
	if Profile(m) != 3 {
		t.Fatalf("profile %d, want 3", Profile(m))
	}
}

// randPerm is a random permutation of {0, …, n−1}.
func randPerm(rng *rand.Rand, n int) sparse.Perm {
	p := make(sparse.Perm, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}
