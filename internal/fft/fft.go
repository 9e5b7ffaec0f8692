// Package fft implements the fast transforms behind the FFT-based fast
// Poisson solver that the paper's additive-Schwarz preconditioner (§5.2)
// uses on its rectangular subdomains: an iterative radix-2 complex FFT, the
// discrete sine transform DST-I built on it, and a direct solver for the
// 5-point Laplacian on a rectangle with homogeneous Dirichlet boundaries.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place forward discrete Fourier transform of x,
// X[k] = Σ_n x[n]·exp(−2πi·kn/N). len(x) must be a power of two.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley–Tukey butterflies.
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, ang))
		half := size / 2
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// DSTI computes the type-I discrete sine transform of x (length n):
// X[k] = Σ_{j=0}^{n−1} x[j]·sin(π(j+1)(k+1)/(n+1)), for k = 0, …, n−1.
// It requires n+1 to be a power of two (the grid sizes used by the fast
// Poisson solver arrange this). DST-I is its own inverse up to the factor
// 2/(n+1).
func DSTI(x []float64) []float64 {
	n := len(x)
	m := n + 1
	if m&(m-1) != 0 {
		// Fall back to the O(n²) definition for awkward sizes: subdomain
		// edges produced by overlap trimming are not always FFT-friendly,
		// and correctness beats speed there.
		return slowDSTI(x)
	}
	// Odd extension of length 2m, transformed with one complex FFT:
	// y = [0, x0, …, x_{n−1}, 0, −x_{n−1}, …, −x0]; then
	// X[k] = −Im(FFT(y))[k+1] / 2.
	y := make([]complex128, 2*m)
	for j := 0; j < n; j++ {
		y[j+1] = complex(x[j], 0)
		y[2*m-1-j] = complex(-x[j], 0)
	}
	FFT(y)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = -imag(y[k+1]) / 2
	}
	return out
}

func slowDSTI(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for j := 0; j < n; j++ {
			s += x[j] * math.Sin(math.Pi*float64((j+1)*(k+1))/float64(n+1))
		}
		out[k] = s
	}
	return out
}
