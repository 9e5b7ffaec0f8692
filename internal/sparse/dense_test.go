package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
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

// TestBlockDiagSolveBitsMatchSolveTo holds the envelope solve of a
// block-diagonal factor to the bits of each group's dense LU.SolveTo:
// groups of order 1 to 24, dense and random without diagonal dominance (so
// the pivot sequence permutes) or banded and sparse as a finite-element
// group is (so envelopes end short of the diagonal's ends, and some rows'
// L or U envelope is empty), against right-hand sides that are dense or
// as sparse as arms.AssembleSchur's, with both zeros in them.
func TestBlockDiagSolveBitsMatchSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	negZero := math.Copysign(0, -1)
	sizes := []int{1, 2, 5, 24, 1, 7, 24, 3, 12}
	start := []int32{0}
	blocks := make([]*Dense, len(sizes))
	for g, n := range sizes {
		start = append(start, start[g]+int32(n))
		d := NewDense(n, n)
		banded := g >= 4
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch {
				case !banded:
					d.Set(i, j, rng.NormFloat64())
				case i == j:
					d.Set(i, j, 4+rng.Float64())
				case (j == i+2 || j == i-3) && i%4 != 1:
					d.Set(i, j, rng.NormFloat64())
				}
			}
		}
		blocks[g] = d
	}
	f, err := FactorBlockDiag(start, func(g int, d *Dense) { copy(d.Data, blocks[g].Data) })
	if err != nil {
		t.Fatal(err)
	}
	if cap(f.val) != len(f.val) {
		t.Errorf("the envelopes carry %d spare entries", cap(f.val)-len(f.val))
	}
	var moved, emptyL, emptyU, short int
	for g, d := range blocks {
		lu, err := d.Factor()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := f.Group(g)
		n := hi - lo
		// The envelopes hold every nonzero of the dense factor, and its
		// pivots.
		for i := 0; i < n; i++ {
			if int(lu.piv[i]) != i {
				moved++
			}
			if lu.piv[i] != f.piv[lo+i] {
				t.Fatalf("group %d: pivot %d is %d, the dense factor's %d", g, i, f.piv[lo+i], lu.piv[i])
			}
			r := lo + i
			first := i - int(f.diag[r]-f.rowPtr[r])
			last := i + int(f.rowPtr[r+1]-f.diag[r]) - 1
			emptyL += b2i(first == i && i > 0)
			emptyU += b2i(last == i && i < n-1)
			short += b2i(first > 0 || last < n-1)
			for j := 0; j < n; j++ {
				v := lu.lu[i*n+j]
				if j >= first && j <= last {
					if got := f.val[int(f.rowPtr[r])+j-first]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("group %d: factor entry (%d, %d) is %v, the dense factor's %v", g, i, j, got, v)
					}
				} else if v != 0 {
					t.Fatalf("group %d: factor entry (%d, %d) = %v lies outside the envelope [%d, %d]", g, i, j, v, first, last)
				}
			}
		}
		for trial := 0; trial < 8; trial++ {
			b := make([]float64, n)
			for i := range b {
				switch {
				case trial%2 == 0 || rng.Intn(4) == 0:
					b[i] = rng.NormFloat64()
				case rng.Intn(2) == 0:
					b[i] = negZero
				}
			}
			got, want := make([]float64, n), make([]float64, n)
			f.SolveGroup(g, got, b)
			lu.SolveTo(want, b)
			for i, v := range want {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("group %d (order %d) trial %d: x[%d] is %v (%#x), SolveTo gives %v (%#x)",
						g, n, trial, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
				}
			}
		}
	}
	if moved == 0 || emptyL == 0 || emptyU == 0 || short == 0 {
		t.Fatalf("the fixture lost a case: %d pivots moved, %d interior rows with an empty L envelope, %d with an empty U envelope, %d envelopes short of the row",
			moved, emptyL, emptyU, short)
	}
	// The whole-vector solve is the group solves side by side.
	b := make([]float64, f.Order())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got, want := make([]float64, len(b)), make([]float64, len(b))
	f.SolveTo(got, b)
	for g := 0; g < f.Groups(); g++ {
		lo, hi := f.Group(g)
		f.SolveGroup(g, want[lo:hi], b[lo:hi])
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveTo[%d] = %v, SolveGroup gives %v", i, got[i], want[i])
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
	bd, err := FactorBlockDiag([]int32{0, 2, 2 + int32(n)}, func(g int, b *Dense) {
		for i := 0; i < b.Rows; i++ {
			b.Set(i, i, 2)
		}
	})
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
		{"SolveGroup short x", ones(n - 1), ones(n), func(x, b []float64) { bd.SolveGroup(1, x, b) }},
		{"SolveGroup short b", ones(n), ones(n - 1), func(x, b []float64) { bd.SolveGroup(1, x, b) }},
		{"SolveGroup long b", ones(n), ones(n + 1), func(x, b []float64) { bd.SolveGroup(1, x, b) }},
		{"SolveGroup another group's order", ones(n), ones(n), func(x, b []float64) { bd.SolveGroup(0, x, b) }},
		{"block SolveTo short x", ones(n), ones(n + 2), bd.SolveTo},
		{"block SolveTo short b", ones(n + 2), ones(n + 1), bd.SolveTo},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sparse: LU.Solve") && !strings.HasPrefix(msg, "sparse: BlockDiagLU.Solve") {
					t.Errorf("%s: panic %q, want one that starts with \"sparse: LU.Solve\" or \"sparse: BlockDiagLU.Solve\"", tc.name, msg)
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
