package sparse

import (
	"fmt"
	"math"

	"parapre/internal/par"
)

// Vector kernels. These are the three Krylov kernel families the paper
// lists in §1: vector update, inner product, and (in csr.go) matrix-vector
// product. All operate on raw []float64 so the distributed layer can reuse
// them on local slices.
//
// Parallelism and determinism: the elementwise kernels (Axpy, ScaleTo,
// AxpyMany) split into chunks and are exact for any chunking. The reductions
// (Dot, Norm2) use the fixed-block scheme of package par — partial results
// per par.BlockSize-wide block, combined in ascending block order — so
// their values are bit-identical at every worker count, which keeps
// iteration counts and residual histories independent of the parallel
// configuration. Vectors no longer than one block follow exactly the
// historical left-to-right accumulation.

const (
	// vecParMin is the vector length at which the elementwise kernels
	// start fanning out; below it the goroutine overhead exceeds the
	// memory-bound loop it would split.
	vecParMin = 16384
	// vecGrain is the minimum chunk length handed to one worker.
	vecGrain = 8192
)

// panicShortOperand is the panic of a vector kernel handed an operand shorter
// than the one it runs over. The kernels check up front, so a rejected
// call has written nothing.
func panicShortOperand(kernel, long string, nLong int, short string, nShort int) {
	panic(fmt.Sprintf("sparse: %s needs len(%s) ≥ len(%s), got len(%s)=%d, len(%s)=%d",
		kernel, long, short, short, nShort, long, nLong))
}

// Dot returns the inner product xᵀy (over the first len(x) entries).
func Dot(x, y []float64) float64 {
	if len(y) < len(x) {
		panicShortOperand("Dot", "y", len(y), "x", len(x))
	}
	n := len(x)
	if n <= par.BlockSize {
		return dotBlock(x, y[:n])
	}
	if par.Serial() {
		// The blocks and the ascending combination of par.SumBlocks,
		// without the closure it heap-allocates on every call.
		var s float64
		for lo := 0; lo < n; lo += par.BlockSize {
			hi := min(lo+par.BlockSize, n)
			s += dotBlock(x[lo:hi], y[lo:hi])
		}
		return s
	}
	return par.SumBlocks(n, func(lo, hi int) float64 {
		return dotBlock(x[lo:hi], y[lo:hi])
	})
}

// dotBlock is Dot over one reduction block; the slices have equal length.
func dotBlock(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// scaledSSQ is the overflow-safe sum-of-squares recurrence over one block:
// it returns (scale, ssq) with Σ x_i² = scale²·ssq. An all-zero block
// reports scale 0.
func scaledSSQ(x []float64) (scale, ssq float64) {
	scale, ssq = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale, ssq
}

// Norm2 returns the Euclidean norm of x, scaled for overflow safety on
// extreme inputs. Long vectors are reduced blockwise with fixed block
// boundaries (partials merged in block order), so the result is
// bit-identical for every worker count.
func Norm2(x []float64) float64 {
	n := len(x)
	if n <= par.BlockSize {
		scale, ssq := scaledSSQ(x)
		return scale * math.Sqrt(ssq)
	}
	nb := par.NumBlocks(n)
	parts := make([][2]float64, nb)
	par.For(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * par.BlockSize
			hi := lo + par.BlockSize
			if hi > n {
				hi = n
			}
			s, q := scaledSSQ(x[lo:hi])
			parts[b] = [2]float64{s, q}
		}
	})
	var scale, ssq float64 = 0, 1
	for _, p := range parts {
		s2, q2 := p[0], p[1]
		if s2 == 0 {
			continue
		}
		if scale < s2 {
			ssq = q2 + ssq*(scale/s2)*(scale/s2)
			scale = s2
		} else {
			ssq += q2 * (s2 / scale) * (s2 / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// AxpyDot computes y += a·x and returns yᵀz of the updated y (both over
// the first len(x) entries) in one pass over the operands — the
// Gram–Schmidt step of the Krylov solvers, which would otherwise stream y
// twice. z may be y itself, which makes the result ‖y‖²; any other
// overlap is undefined.
//
// The pass is bit-identical to Axpy(a, x, y) followed by Dot(y, z): every
// element sees the same update, and the products are accumulated left to
// right inside the same par.BlockSize blocks, combined in ascending block
// order.
func AxpyDot(a float64, x, y, z []float64) float64 {
	n := len(x)
	if len(y) < n {
		panicShortOperand("AxpyDot", "y", len(y), "x", n)
	}
	if len(z) < n {
		panicShortOperand("AxpyDot", "z", len(z), "x", n)
	}
	if n <= par.BlockSize {
		return axpyDotBlock(a, x, y[:n], z[:n])
	}
	if par.Serial() {
		var s float64
		for lo := 0; lo < n; lo += par.BlockSize {
			hi := min(lo+par.BlockSize, n)
			s += axpyDotBlock(a, x[lo:hi], y[lo:hi], z[lo:hi])
		}
		return s
	}
	return par.SumBlocks(n, func(lo, hi int) float64 {
		return axpyDotBlock(a, x[lo:hi], y[lo:hi], z[lo:hi])
	})
}

// axpyDotBlock is AxpyDot over one reduction block; the three slices have
// equal length.
func axpyDotBlock(a float64, x, y, z []float64) float64 {
	var s float64
	for i, v := range x {
		yi := y[i] + a*v
		y[i] = yi
		s += yi * z[i]
	}
	return s
}

// Axpy computes y += a·x (over the first len(x) entries).
func Axpy(a float64, x, y []float64) {
	if len(y) < len(x) {
		panicShortOperand("Axpy", "y", len(y), "x", len(x))
	}
	if len(x) >= vecParMin {
		par.For(len(x), vecGrain, func(lo, hi int) {
			xx, yy := x[lo:hi], y[lo:hi]
			for i, v := range xx {
				yy[i] += a * v
			}
		})
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// AxpyMany computes y += a[0]·xs[0] + a[1]·xs[1] + … over the entries of
// y — the update that ends a GMRES cycle, which adds every direction of
// the cycle to the iterate. It is bit-identical to Axpy(a[k], xs[k], y)
// for k = 0, 1, … in turn: each entry of y receives the same products in
// the same ascending order of k, every sum rounded as the pass would have
// rounded it. What changes is how often y is streamed — once for four
// directions, the entry held in a register between them, instead of once
// for each.
func AxpyMany(a []float64, xs [][]float64, y []float64) {
	if len(xs) < len(a) {
		panicShortOperand("AxpyMany", "xs", len(xs), "a", len(a))
	}
	for _, x := range xs[:len(a)] {
		if len(x) < len(y) {
			panicShortOperand("AxpyMany", "xs[k]", len(x), "y", len(y))
		}
	}
	if len(y) >= vecParMin && !par.Serial() {
		par.For(len(y), vecGrain, func(lo, hi int) {
			axpyManyRange(a, xs, y, lo, hi)
		})
		return
	}
	axpyManyRange(a, xs, y, 0, len(y))
}

// axpyManyRange is AxpyMany over the entries [lo, hi) of y.
func axpyManyRange(a []float64, xs [][]float64, y []float64, lo, hi int) {
	yy := y[lo:hi]
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		x0, x1, x2, x3 := xs[k][lo:hi], xs[k+1][lo:hi], xs[k+2][lo:hi], xs[k+3][lo:hi]
		for i, v := range yy {
			v += a0 * x0[i]
			v += a1 * x1[i]
			v += a2 * x2[i]
			v += a3 * x3[i]
			yy[i] = v
		}
	}
	for ; k < len(a); k++ {
		ak := a[k]
		for i, v := range xs[k][lo:hi] {
			yy[i] += ak * v
		}
	}
}

// ScaleTo computes dst = a·src (over the first len(src) entries). It is
// the normalization kernel of the Krylov basis construction.
func ScaleTo(dst []float64, a float64, src []float64) {
	if len(dst) < len(src) {
		panicShortOperand("ScaleTo", "dst", len(dst), "src", len(src))
	}
	if len(src) >= vecParMin {
		par.For(len(src), vecGrain, func(lo, hi int) {
			ss, dd := src[lo:hi], dst[lo:hi]
			for i, v := range ss {
				dd[i] = a * v
			}
		})
		return
	}
	for i, v := range src {
		dst[i] = a * v
	}
}
