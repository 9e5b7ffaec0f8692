package ilu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapre/internal/sparse"
)

// shiftedSystem builds a matrix with a structurally zero diagonal (a
// circulant shift plus small noise) — hopeless for ILUT, trivial with
// column pivoting.
func shiftedSystem(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		coo.Add(i, (i+1)%n, 5)   // dominant off-diagonal
		coo.Add(i, (i+3)%n, 0.5) // some extra structure
		coo.Add(i, i, 0)         // explicit zero diagonal
	}
	return coo.ToCSR()
}

func TestILUTPSolvesZeroDiagonalSystem(t *testing.T) {
	n := 20
	a := shiftedSystem(n)
	p, err := ILUTP(a, ILUTPOptions{ILUTOptions: ILUTOptions{Tau: 0, LFil: 0}, PermTol: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Swaps == 0 {
		t.Fatal("no pivoting on a zero-diagonal matrix")
	}
	rng := rand.New(rand.NewSource(1))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	x := make([]float64, n)
	p.Solve(x, b, make([]float64, n))
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	// Plain ILUT must have needed pivot fixes on this matrix (its
	// diagonal is structurally zero), confirming ILUTP is the right tool.
	f, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.PivotFixes == 0 {
		t.Fatal("expected plain ILUT to hit zero pivots here")
	}
}

func TestILUTPNoPivotingMatchesILUT(t *testing.T) {
	// On a diagonally dominant matrix with PermTol small, no swap fires
	// and the factors coincide with plain ILUT.
	rng := rand.New(rand.NewSource(2))
	a := randSPDish(rng, 30, 0.2)
	opt := ILUTOptions{Tau: 1e-3, LFil: 10}
	p, err := ILUTP(a, ILUTPOptions{ILUTOptions: opt, PermTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Swaps != 0 {
		t.Fatalf("unexpected swaps on dominant matrix: %d", p.Swaps)
	}
	f, err := ILUT(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.LU.NNZ() != f.NNZ() {
		t.Fatalf("nnz differ: %d vs %d", p.LU.NNZ(), f.NNZ())
	}
	mp, _ := combinedOf(p.LU)
	mf, _ := combinedOf(f)
	for k := range mf.Val {
		if math.Abs(mp.Val[k]-mf.Val[k]) > 1e-12 {
			t.Fatalf("value %d differs", k)
		}
	}
}

func TestILUTPCompleteEqualsDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		// General random matrix with possibly weak diagonal.
		coo := sparse.NewCOO(n, n, n*5)
		for i := 0; i < n; i++ {
			coo.Add(i, i, rng.NormFloat64()*0.1)
			for k := 0; k < 4; k++ {
				j := rng.Intn(n)
				if j != i {
					coo.Add(i, j, rng.NormFloat64())
				}
			}
		}
		a := coo.ToCSR()
		df, err := a.Dense().Factor()
		if err != nil {
			return true // singular draw: skip
		}
		p, err := ILUTP(a, ILUTPOptions{ILUTOptions: ILUTOptions{Tau: 0, LFil: 0}, PermTol: 1})
		if err != nil {
			t.Logf("ILUTP: %v", err)
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := df.Solve(b)
		got := make([]float64, n)
		p.Solve(got, b, make([]float64, n))
		for i := range want {
			scale := 1 + math.Abs(want[i])
			if math.Abs(got[i]-want[i]) > 1e-5*scale {
				t.Logf("seed %d: x[%d] = %v, want %v (swaps %d)", seed, i, got[i], want[i], p.Swaps)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestILUTPPermutationValid(t *testing.T) {
	a := shiftedSystem(15)
	p, err := ILUTP(a, ILUTPOptions{ILUTOptions: ILUTOptions{Tau: 0, LFil: 0}, PermTol: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Perm.IsValid() {
		t.Fatal("invalid permutation")
	}
	m, _ := combinedOf(p.LU)
	if err := m.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if p.LU.SolveFlops() <= 0 {
		t.Fatal("SolveFlops")
	}
}

func TestILUTPRejectsNonSquare(t *testing.T) {
	if _, err := ILUTP(sparse.NewCSR(2, 3, 0), ILUTPOptions{}); err == nil {
		t.Fatal("non-square accepted")
	}
}
