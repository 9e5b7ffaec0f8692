package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// naiveDFT is the O(n²) oracle.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(rng, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (sizeExp % 10)
		x := randComplex(rng, n)
		// The inverse DFT is conj(FFT(conj(X)))/N.
		y := append([]complex128(nil), x...)
		FFT(y)
		for i := range y {
			y[i] = cmplx.Conj(y[i])
		}
		FFT(y)
		for i := range y {
			y[i] = cmplx.Conj(y[i]) / complex(float64(n), 0)
		}
		return maxDiff(x, y) < 1e-10*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	x, y := randComplex(rng, n), randComplex(rng, n)
	alpha := complex(1.7, -0.3)
	z := make([]complex128, n)
	for i := range z {
		z[i] = x[i] + alpha*y[i]
	}
	FFT(x)
	FFT(y)
	FFT(z)
	for i := range z {
		want := x[i] + alpha*y[i]
		if cmplx.Abs(z[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	x := randComplex(rng, n)
	var tEnergy float64
	for _, v := range x {
		tEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	FFT(x)
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(fEnergy/float64(n)-tEnergy) > 1e-8*tEnergy {
		t.Fatalf("Parseval violated: time %v, freq/N %v", tEnergy, fEnergy/float64(n))
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=3")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestDSTIMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// n+1 power of two => fast path; other n => slow path. Both must agree
	// with the definition.
	for _, n := range []int{1, 3, 7, 15, 31, 5, 10, 12} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := DSTI(x)
		want := slowDSTI(x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d: DSTI[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestDSTIInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{7, 15, 63, 9} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// DST-I is its own inverse up to the factor 2/(n+1).
		y := DSTI(DSTI(x))
		for i := range y {
			y[i] *= 2 / float64(n+1)
		}
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: DSTI∘DSTI·2/(n+1) differs at %d: %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestPoissonSolverExactOnEigenmodes(t *testing.T) {
	// u = sin(kπx)sin(lπy) on the grid is an exact eigenvector of the
	// discrete Laplacian, so Solve(Apply(u)) must reproduce u to rounding.
	nx, ny := 15, 31
	hx, hy := 1.0/float64(nx+1), 1.0/float64(ny+1)
	p := NewPoissonSolver(nx, ny, hx, hy)
	for _, kl := range [][2]int{{1, 1}, {3, 2}, {7, 5}} {
		u := make([]float64, nx*ny)
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				u[j*nx+i] = math.Sin(float64(kl[0])*math.Pi*float64(i+1)*hx) *
					math.Sin(float64(kl[1])*math.Pi*float64(j+1)*hy)
			}
		}
		got := p.Solve(p.Apply(u))
		for idx := range u {
			if math.Abs(got[idx]-u[idx]) > 1e-10 {
				t.Fatalf("mode %v: mismatch at %d: %v vs %v", kl, idx, got[idx], u[idx])
			}
		}
	}
}

func TestPoissonSolverRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 31, 15
	p := NewPoissonSolver(nx, ny, 0.5/float64(nx+1), 2.0/float64(ny+1))
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	u := p.Solve(f)
	back := p.Apply(u)
	for i := range f {
		if math.Abs(back[i]-f[i]) > 1e-8 {
			t.Fatalf("Apply(Solve(f)) differs at %d: %v vs %v", i, back[i], f[i])
		}
	}
}

func TestPoissonSolverAwkwardSizes(t *testing.T) {
	// Sizes where n+1 is not a power of two exercise the slow DST path.
	rng := rand.New(rand.NewSource(7))
	nx, ny := 10, 13
	p := NewPoissonSolver(nx, ny, 0.1, 0.07)
	f := make([]float64, nx*ny)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	back := p.Apply(p.Solve(f))
	for i := range f {
		if math.Abs(back[i]-f[i]) > 1e-8 {
			t.Fatalf("awkward size round trip differs at %d", i)
		}
	}
}

func TestPoissonSolveToReusesBuffer(t *testing.T) {
	nx, ny := 7, 7
	p := NewPoissonSolver(nx, ny, 0.125, 0.125)
	f := make([]float64, nx*ny)
	f[nx*ny/2] = 1
	u1 := p.Solve(f)
	u2 := make([]float64, nx*ny)
	p.SolveTo(u2, f)
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("SolveTo differs from Solve")
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(8)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkPoissonSolve63(b *testing.B) {
	n := 63
	p := NewPoissonSolver(n, n, 1.0/float64(n+1), 1.0/float64(n+1))
	f := make([]float64, n*n)
	for i := range f {
		f[i] = float64(i % 17)
	}
	u := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SolveTo(u, f)
	}
}
