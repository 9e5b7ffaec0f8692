package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(20)
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d.Set(i, j, rng.NormFloat64())
			}
			d.Add(i, i, float64(n)) // diagonally dominant => well conditioned
		}
		xTrue := randVec(rng, n)
		b := d.MulVec(xTrue)
		f, err := d.Factor()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := f.Solve(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	d := NewDense(3, 3)
	d.Set(0, 0, 1)
	d.Set(1, 0, 2) // rows 1,2 are multiples of row 0's column pattern => column 1,2 all zero
	if _, err := d.Factor(); err == nil {
		t.Fatal("Factor accepted a singular matrix")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewDense(2, 3).Factor(); err == nil {
		t.Fatal("Factor accepted a non-square matrix")
	}
}

func TestLUPivotingNeeded(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	d := NewDense(2, 2)
	d.Set(0, 1, 1)
	d.Set(1, 0, 1)
	f, err := d.Factor()
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{3, 5})
	if math.Abs(x[0]-5) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("Solve = %v, want [5 3]", x)
	}
	if got := f.Det(); math.Abs(got+1) > 1e-14 {
		t.Fatalf("Det = %v, want -1", got)
	}
}

func TestLUDeterminantProperty(t *testing.T) {
	// det(cI) = c^n.
	f := func(c float64, nRaw uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) < 1e-3 || math.Abs(c) > 1e3 {
			return true
		}
		n := 1 + int(nRaw%5)
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, c)
		}
		lu, err := d.Factor()
		if err != nil {
			return false
		}
		want := math.Pow(c, float64(n))
		return math.Abs(lu.Det()-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	e := d.Clone()
	e.Set(0, 0, 9)
	if d.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSolveToMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 7
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
		d.Add(i, i, 10)
	}
	f, err := d.Factor()
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, n)
	x1 := f.Solve(b)
	x2 := make([]float64, n)
	f.SolveTo(x2, b)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("SolveTo differs from Solve")
		}
	}
}

// TestSolveManyBitsMatchSolveTo holds the four-at-a-time solve to the
// bits of SolveTo column by column: random matrices without diagonal
// dominance (so the pivot sequence permutes), right-hand sides that are
// dense, and ones as sparse as arms.AssembleSchur's with both zeros in
// them, at counts on either side of the blocks of four.
func TestSolveManyBitsMatchSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 5, 24} {
		d := NewDense(n, n)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		f, err := d.Factor()
		if err != nil {
			t.Fatal(err)
		}
		if n >= 5 {
			moved := 0
			for i, p := range f.piv {
				if p != i {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("n=%d: the pivot sequence is the identity, the gather is not exercised", n)
			}
		}
		for _, nrhs := range []int{0, 1, 3, 4, 5, 8, 37} {
			for _, sparseRHS := range []bool{false, true} {
				b := make([]float64, nrhs*n)
				for i := range b {
					switch {
					case !sparseRHS || rng.Intn(4) == 0:
						b[i] = rng.NormFloat64()
					case rng.Intn(2) == 0:
						b[i] = negZero
					}
				}
				x := make([]float64, nrhs*n)
				f.SolveManyTo(x, b, nrhs)
				want := make([]float64, n)
				for c := 0; c < nrhs; c++ {
					f.SolveTo(want, b[c*n:(c+1)*n])
					for i, v := range want {
						if got := x[c*n+i]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("n=%d nrhs=%d sparse=%v: column %d entry %d is %v (%#x), SolveTo gives %v (%#x)",
								n, nrhs, sparseRHS, c, i, got, math.Float64bits(got), v, math.Float64bits(v))
						}
					}
				}
			}
		}
	}
}

// TestLUSolveRejectsShortOperandsUntouched checks that the dense solves
// refuse operands of the wrong length up front, with the package's own
// message, before any entry of the destination is written.
func TestLUSolveRejectsShortOperandsUntouched(t *testing.T) {
	n := 4
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 2)
		d.Set(i, (i+1)%n, 1)
	}
	f, err := d.Factor()
	if err != nil {
		t.Fatal(err)
	}
	ones := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for _, tc := range []struct {
		name  string
		x, b  []float64
		solve func(x, b []float64)
	}{
		{"SolveTo short x", ones(n - 1), ones(n), f.SolveTo},
		{"SolveTo short b", ones(n), ones(n - 1), f.SolveTo},
		{"SolveTo long b", ones(n), ones(n + 1), f.SolveTo},
		{"SolveManyTo short x", ones(3*n - 1), ones(3 * n), func(x, b []float64) { f.SolveManyTo(x, b, 3) }},
		{"SolveManyTo short b", ones(5 * n), ones(5*n - 1), func(x, b []float64) { f.SolveManyTo(x, b, 5) }},
		{"SolveManyTo long b", ones(5 * n), ones(5*n + 1), func(x, b []float64) { f.SolveManyTo(x, b, 5) }},
		{"SolveManyTo columns of another order", ones(4 * (n + 1)), ones(4 * (n + 1)), func(x, b []float64) { f.SolveManyTo(x, b, 4) }},
		{"SolveManyTo negative count", ones(n), ones(n), func(x, b []float64) { f.SolveManyTo(x, b, -1) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sparse: LU.Solve") {
					t.Errorf("%s: panic %q, want one that starts with \"sparse: LU.Solve\"", tc.name, msg)
				}
				for i, v := range tc.x {
					if v != 1 {
						t.Errorf("%s: x[%d] = %v was written before the panic", tc.name, i, v)
					}
				}
			}()
			tc.solve(tc.x, tc.b)
		}()
	}
}
