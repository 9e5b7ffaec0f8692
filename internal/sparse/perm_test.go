package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPerm(rng *rand.Rand, n int) Perm {
	p := make(Perm, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func TestPermInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		p := randPerm(rng, n)
		q := p.Inverse()
		if !q.IsValid() {
			return false
		}
		for i := range p {
			if int(q[p[i]]) != i || int(p[q[i]]) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsValidRejectsBadPerms(t *testing.T) {
	if (Perm{0, 0, 1}).IsValid() {
		t.Error("duplicate accepted")
	}
	if (Perm{0, 3, 1}).IsValid() {
		t.Error("out-of-range accepted")
	}
	if (Perm{-1, 0}).IsValid() {
		t.Error("negative accepted")
	}
	if !(Perm{2, 0, 1}).IsValid() {
		t.Error("valid perm rejected")
	}
}

// applyVec gathers x through p into a fresh vector.
func applyVec(p Perm, x []float64) []float64 {
	y := make([]float64, len(p))
	p.ApplyVecTo(y, x)
	return y
}

func TestApplyScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		p := randPerm(rng, n)
		x := randVec(rng, n)
		y := applyVec(p, x)
		z := make([]float64, n)
		p.ScatterVecTo(z, y)
		for i := range x {
			if z[i] != x[i] {
				t.Fatalf("trial %d: scatter(apply(x)) != x at %d", trial, i)
			}
		}
	}
}

func TestPermuteSymConsistency(t *testing.T) {
	// (P A Pᵀ)(i, j) must equal A(p[i], p[j]), and permuted matvec must
	// commute: (PAPᵀ)(Px) = P(Ax).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(25)
		a := randCSR(rng, n, n, 0.3)
		p := randPerm(rng, n)
		b := PermuteSym(a, p)
		if err := b.CheckValid(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := b.At(i, j), a.At(int(p[i]), int(p[j])); got != want {
					t.Fatalf("trial %d: B(%d,%d)=%v, want A(p_i,p_j)=%v", trial, i, j, got, want)
				}
			}
		}
		x := randVec(rng, n)
		px := applyVec(p, x)
		lhs := b.MulVec(px)
		rhs := applyVec(p, a.MulVec(x))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-12 {
				t.Fatalf("trial %d: permuted matvec mismatch at %d", trial, i)
			}
		}
	}
}

func TestExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randCSR(rng, 12, 12, 0.4)
	rows := []int{3, 7, 1}
	cols := []int{0, 11, 5, 2}
	b := Extract(a, rows, cols)
	if err := b.CheckValid(); err != nil {
		t.Fatal(err)
	}
	for i, oi := range rows {
		for j, oj := range cols {
			if got, want := b.At(i, j), a.At(oi, oj); got != want {
				t.Fatalf("Extract(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestExtractEmpty(t *testing.T) {
	a := Identity(5)
	b := Extract[int](a, nil, nil)
	if b.Rows != 0 || b.Cols != 0 || b.NNZ() != 0 {
		t.Fatalf("Extract(nil,nil) = %v", b)
	}
}

func TestIdentityPerm(t *testing.T) {
	p := IdentityPerm(5)
	x := []float64{1, 2, 3, 4, 5}
	y := applyVec(p, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity perm moved entries")
		}
	}
}

func TestApplyVecTo(t *testing.T) {
	p := Perm{2, 0, 1}
	x := []float64{10, 20, 30}
	y := make([]float64, 3)
	p.ApplyVecTo(y, x)
	if y[0] != 30 || y[1] != 10 || y[2] != 20 {
		t.Fatalf("ApplyVecTo = %v", y)
	}
}
