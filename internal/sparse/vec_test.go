package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64)
		x, y := randVec(rng, n), randVec(rng, n)
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		x := randVec(rng, 1+rng.Intn(100))
		want := math.Sqrt(Dot(x, x))
		got := Norm2(x)
		if math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("Norm2 = %v, want %v", got, want)
		}
	}
}

func TestNorm2OverflowSafety(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := Norm2(x)
	want := 1e300 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want) > 1e288 {
		t.Fatalf("Norm2 overflow: got %v, want %v", got, want)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
	if Norm2([]float64{0, 0}) != 0 {
		t.Fatal("Norm2 of zeros != 0")
	}
}

func TestAxpyZero(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	for i, want := range []float64{12, 24, 36} {
		if y[i] != want {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want)
		}
	}
	Axpy(0, x, y)
	if y[0] != 12 || y[2] != 36 {
		t.Fatal("Axpy with a zero coefficient changed y")
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x, y := randVec(rng, n), randVec(rng, n)
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// axpyDotSpecials are the entries the bit-identity tests scatter into
// their vectors: signed zeros and infinities (whose products and sums
// turn into NaN) next to ordinary values.
var axpyDotSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -3.5}

// sameBits is bit equality of two float64 values.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAxpyDot compares AxpyDot with Axpy followed by Dot on copies of the
// operands: the returned sum and every entry of y must be the same under
// same. With alias set z is y itself.
func checkAxpyDot(t *testing.T, same func(a, b float64) bool, a float64, x, y, z []float64, alias bool) {
	t.Helper()
	yRef := append([]float64(nil), y...)
	yGot := append([]float64(nil), y...)
	zRef, zGot := z, z
	if alias {
		zRef, zGot = yRef, yGot
	}
	Axpy(a, x, yRef)
	want := Dot(yRef[:len(x)], zRef)
	got := AxpyDot(a, x, yGot, zGot)
	if !same(got, want) {
		t.Fatalf("n=%d a=%v alias=%v: AxpyDot = %v (%#x), Axpy then Dot = %v (%#x)",
			len(x), a, alias, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range yRef {
		if !same(yGot[i], yRef[i]) {
			t.Fatalf("n=%d a=%v alias=%v: y[%d] = %v, Axpy gives %v", len(x), a, alias, i, yGot[i], yRef[i])
		}
	}
}

// TestAxpyDotBitsMatchAxpyThenDot pins the contract the Krylov solvers
// rest on: the fused pass is the two-pass form, bit for bit, on both
// sides of every reduction-block boundary, for every kind of scalar and
// entry, at one worker and at several.
func TestAxpyDotBitsMatchAxpyThenDot(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scalars := []float64{0, math.Copysign(0, -1), 0.75, -1e-3, 3e8, math.NaN()}
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			for _, n := range []int{0, 1, 4095, 4096, 4097, 8192, 8320, 3*4096 + 1} {
				x, y, z := randVecMixed(rng, n), randVecMixed(rng, n), randVecMixed(rng, n)
				for k := 0; k < n; k += 1 + n/37 {
					x[k] = axpyDotSpecials[rng.Intn(len(axpyDotSpecials))]
					y[(k+1)%n] = axpyDotSpecials[rng.Intn(len(axpyDotSpecials))]
					z[(k+2)%n] = axpyDotSpecials[rng.Intn(len(axpyDotSpecials))]
				}
				for _, a := range scalars {
					checkAxpyDot(t, sameBits, a, x, y, z, false)
					checkAxpyDot(t, sameBits, a, x, y, nil, true)
				}
			}
		})
	}
}

// TestAxpyDotZeroAlloc: the fused kernel allocates nothing on the serial
// path, on both sides of the single-block boundary, with z distinct from
// y and z = y.
func TestAxpyDotZeroAlloc(t *testing.T) {
	for _, n := range []int{200, 8320} {
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		var sink float64
		if got := measureSteadyAllocs(t, 1, func() { sink += AxpyDot(0.5, x, y, z) + AxpyDot(0.5, x, y, y) }); got != 0 {
			t.Fatalf("n=%d: AxpyDot allocates %v objects per call pair, want 0", n, got)
		}
		_ = sink
	}
}

// TestAxpyManyBitsMatchAxpyPasses pins the contract the GMRES update rests
// on: adding j scaled vectors in one call leaves in y the bits that j Axpy
// passes in ascending order leave, for every j across the groups of four
// the kernel forms, on both sides of the reduction-block and the fan-out
// boundaries, for every kind of coefficient and entry, at one worker and
// at several. (Two NaNs count as equal: see sameFloat.) Passing more
// vectors than coefficients uses the leading ones, as the solver does
// with its basis.
func TestAxpyManyBitsMatchAxpyPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	coefs := []float64{0, math.Copysign(0, -1), 0.75, -1e-3, 3e8, math.NaN()}
	for _, w := range []int{1, 4} {
		withWorkers(w, func() {
			for _, n := range []int{0, 1, 4095, 4096, 4097, 8320, vecParMin - 1, vecParMin, vecParMin + 1, 3*vecGrain + 5} {
				xs := make([][]float64, 21)
				for k := range xs {
					xs[k] = randVecMixed(rng, n)
					for i := k; i < n; i += 1 + n/37 {
						xs[k][i] = axpyDotSpecials[rng.Intn(len(axpyDotSpecials))]
					}
				}
				y0 := randVecMixed(rng, n)
				for i := 0; i < n; i += 1 + n/41 {
					y0[i] = axpyDotSpecials[rng.Intn(len(axpyDotSpecials))]
				}
				for j := 0; j <= 20; j++ {
					a := make([]float64, j)
					for k := range a {
						a[k] = rng.NormFloat64()
						if rng.Intn(4) == 0 {
							a[k] = coefs[rng.Intn(len(coefs))]
						}
					}
					want := append([]float64(nil), y0...)
					for k := range a {
						Axpy(a[k], xs[k], want)
					}
					got := append([]float64(nil), y0...)
					AxpyMany(a, xs, got)
					for i := range want {
						if !sameFloat(got[i], want[i]) {
							t.Fatalf("workers=%d n=%d j=%d: y[%d] = %v (%#x), %d Axpy passes give %v (%#x)", w, n, j, i,
								got[i], math.Float64bits(got[i]), j, want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		})
	}
}

// TestAxpyManyZeroAlloc: the many-vector update allocates nothing on the
// serial path, below and above the fan-out length, through both its
// groups of four and its remainder loop.
func TestAxpyManyZeroAlloc(t *testing.T) {
	for _, n := range []int{200, vecParMin + 7} {
		xs := make([][]float64, 6)
		for k := range xs {
			xs[k] = make([]float64, n)
		}
		a := make([]float64, len(xs))
		y := make([]float64, n)
		if got := measureSteadyAllocs(t, 1, func() { AxpyMany(a, xs, y) }); got != 0 {
			t.Fatalf("n=%d: AxpyMany allocates %v objects per call, want 0", n, got)
		}
	}
}

// TestVecKernelsRejectShortOperands: a destination shorter than the
// vector a kernel runs over is refused before the first write, with a
// message naming the kernel and both lengths.
func TestVecKernelsRejectShortOperands(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		name string
		want string
		call func(short []float64)
	}{
		{"Axpy", "sparse: Axpy needs len(y) ≥ len(x), got len(x)=5, len(y)=3",
			func(short []float64) { Axpy(2, x, short) }},
		{"ScaleTo", "sparse: ScaleTo needs len(dst) ≥ len(src), got len(src)=5, len(dst)=3",
			func(short []float64) { ScaleTo(short, 2, x) }},
		{"AxpyDot/y", "sparse: AxpyDot needs len(y) ≥ len(x), got len(x)=5, len(y)=3",
			func(short []float64) { AxpyDot(2, x, short, x) }},
		{"AxpyDot/z", "sparse: AxpyDot needs len(z) ≥ len(x), got len(x)=5, len(z)=3",
			func(short []float64) { y := make([]float64, 5); AxpyDot(2, x, y, short) }},
		{"Dot", "sparse: Dot needs len(y) ≥ len(x), got len(x)=5, len(y)=3",
			func(short []float64) { Dot(x, short) }},
		{"AxpyMany/xs", "sparse: AxpyMany needs len(xs) ≥ len(a), got len(a)=2, len(xs)=1",
			func(short []float64) { AxpyMany([]float64{1, 2}, [][]float64{x}, short) }},
	}
	for _, tc := range cases {
		short := []float64{7, 8, 9}
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.call(short)
		}()
		if short[0] != 7 || short[1] != 8 || short[2] != 9 {
			t.Errorf("%s: destination %v overwritten before the length check", tc.name, short)
		}
	}
}
