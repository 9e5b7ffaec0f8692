package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property suite for the composition behavior of the structural
// operations: the solvers downstream lean on Extract/PermuteSym/Transpose
// commuting with matrix-vector algebra in exactly these ways.

func TestExtractIdentityIsClone(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := randCSR(rng, 15, 15, 0.3)
	all := make([]int, 15)
	for i := range all {
		all[i] = i
	}
	b := Extract(a, all, all)
	if !a.Equal(b) {
		t.Fatal("Extract(identity) != original")
	}
}

func TestExtractCommutesWithMatVec(t *testing.T) {
	// (A[R,C])·x == (A·x̂)[R] where x̂ scatters x into the C positions,
	// provided rows R reference only columns C — guaranteed when C is the
	// full column set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 3+rng.Intn(12), 3+rng.Intn(12)
		a := randCSR(rng, nr, nc, 0.3)
		// Random row subset.
		var rows []int
		for i := 0; i < nr; i++ {
			if rng.Intn(2) == 0 {
				rows = append(rows, i)
			}
		}
		cols := make([]int, nc)
		for j := range cols {
			cols[j] = j
		}
		sub := Extract(a, rows, cols)
		x := randVec(rng, nc)
		full := a.MulVec(x)
		got := sub.MulVec(x)
		for i, r := range rows {
			if math.Abs(got[i]-full[r]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSymComposition(t *testing.T) {
	// P2·(P1·A·P1ᵀ)·P2ᵀ == (P1∘P2)·A·(P1∘P2)ᵀ with the composed
	// permutation q[i] = p1[p2[i]].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randCSR(rng, n, n, 0.3)
		p1 := randPerm(rng, n)
		p2 := randPerm(rng, n)
		b := PermuteSym(PermuteSym(a, p1), p2)
		q := make(Perm, n)
		for i := range q {
			q[i] = p1[p2[i]]
		}
		c := PermuteSym(a, q)
		return b.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeExtractCommute(t *testing.T) {
	// Extract(Aᵀ, C, R) == Extract(A, R, C)ᵀ.
	rng := rand.New(rand.NewSource(31))
	a := randCSR(rng, 12, 10, 0.35)
	rows := []int{0, 3, 7, 11}
	cols := []int{1, 2, 9}
	lhs := Extract(a.Transpose(), cols, rows)
	rhs := Extract(a, rows, cols).Transpose()
	if !lhs.Equal(rhs) {
		t.Fatal("transpose and extract do not commute")
	}
}

func TestCOOMatchesDenseSum(t *testing.T) {
	// Summed duplicate triplets equal the dense accumulation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		coo := NewCOO(n, n, 32)
		d := NewDense(n, n)
		for k := 0; k < 32; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			coo.Add(i, j, v)
			d.Add(i, j, v)
		}
		a := coo.ToCSR()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(a.At(i, j)-d.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		return a.CheckValid() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecLinearity(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randCSR(rng, n, n, 0.3)
		x, y := randVec(rng, n), randVec(rng, n)
		z := make([]float64, n)
		for i := range z {
			z[i] = x[i] + alpha*y[i]
		}
		az := a.MulVec(z)
		ax := a.MulVec(x)
		ay := a.MulVec(y)
		for i := range az {
			want := ax[i] + alpha*ay[i]
			scale := 1 + math.Abs(want)
			if math.Abs(az[i]-want) > 1e-9*scale*(1+math.Abs(alpha)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseMulVecMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randCSR(rng, 9, 13, 0.4)
	d := a.Dense()
	x := randVec(rng, 13)
	y1 := a.MulVec(x)
	y2 := d.MulVec(x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatal("dense expansion changed the operator")
		}
	}
	y3 := make([]float64, 9)
	d.MulVecTo(y3, x)
	for i := range y2 {
		if y2[i] != y3[i] {
			t.Fatal("MulVecTo differs from MulVec")
		}
	}
}
