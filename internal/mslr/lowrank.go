package mslr

import (
	"fmt"
	"math"
	"math/rand"

	"parapre/internal/sparse"
)

// lowRank is the rank-k correction of a Schur residual operator
// G = I − S·C̃⁻¹:
//
//	(I−G)⁻¹ ≈ I + V·((I−H)⁻¹ − I)·Vᵀ,  H = Vᵀ·G·V
//
// with V an orthonormal basis probing G's dominant eigenspace. A nil
// *lowRank (or k == 0) is the identity correction.
type lowRank struct {
	k      int
	v      [][]float64 // k orthonormal columns of length m
	hLU    *sparse.LU  // dense factorization of (I−H)
	ck, dk []float64   // scratch, length k
}

// correct computes dst = g + V·((I−H)⁻¹ − I)·Vᵀ·g. dst and g must not
// alias the scratch; dst == g is allowed.
func (lr *lowRank) correct(dst, g []float64) {
	if lr == nil || lr.k == 0 {
		copy(dst, g) // a no-op when dst is g, and when both are empty
		return
	}
	for i := 0; i < lr.k; i++ {
		lr.ck[i] = dot(lr.v[i], g)
	}
	lr.hLU.SolveTo(lr.dk, lr.ck)
	if &dst[0] != &g[0] {
		copy(dst, g)
	}
	for i := 0; i < lr.k; i++ {
		d := lr.dk[i] - lr.ck[i]
		if d == 0 {
			continue
		}
		vi := lr.v[i]
		for j := range dst {
			dst[j] += d * vi[j]
		}
	}
}

// applyFlops models one correct call over vectors of length m.
func (lr *lowRank) applyFlops(m int) float64 {
	if lr == nil || lr.k == 0 {
		return 0
	}
	return float64(4*m*lr.k + 2*lr.k*lr.k)
}

// buildFlops models the Arnoldi probing cost (k operator applications of
// roughly O(m²) work plus the orthogonalizations and the dense factor).
func (lr *lowRank) buildFlops(m int) float64 {
	if lr == nil || lr.k == 0 {
		return 0
	}
	k := float64(lr.k)
	mf := float64(m)
	return k*mf*mf + 4*k*k*mf + 2*k*k*k/3
}

// orthonormalize runs two modified-Gram-Schmidt passes of x against the
// basis and normalizes. It reports false when x is (numerically) inside
// the span of the basis.
func orthonormalize(x []float64, basis [][]float64) bool {
	nrm0 := math.Sqrt(dot(x, x))
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			h := dot(b, x)
			if h == 0 {
				continue
			}
			for i := range x {
				x[i] -= h * b[i]
			}
		}
	}
	nrm := math.Sqrt(dot(x, x))
	if nrm <= 1e-10*(1+nrm0) {
		return false
	}
	inv := 1 / nrm
	for i := range x {
		x[i] *= inv
	}
	return true
}

// randomOrthonormal draws a fresh probe direction orthonormal to the
// basis, retrying a few times before giving up (the basis then spans the
// numerically reachable space).
func randomOrthonormal(m int, basis [][]float64, rng *rand.Rand) ([]float64, bool) {
	for attempt := 0; attempt < 4; attempt++ {
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if orthonormalize(x, basis) {
			return x, true
		}
	}
	return nil, false
}

// buildLowRank probes apply (the operator G) with a seeded Arnoldi pass
// of rank min(k, m): each new direction is G of the previous one,
// orthonormalized against the basis, with a random restart when the
// Krylov space deflates early. H = Vᵀ·G·V is then formed explicitly —
// correct under deflation, where no Hessenberg structure survives — and
// I−H is factored densely. A singular I−H (the correction cannot help)
// degrades to the identity correction instead of failing setup.
func buildLowRank(m, k int, apply func(dst, src []float64), rng *rand.Rand) (*lowRank, error) {
	if k > m {
		k = m
	}
	if m == 0 || k <= 0 {
		return nil, nil
	}
	v := make([][]float64, 0, k)
	w := make([][]float64, 0, k)
	first, ok := randomOrthonormal(m, v, rng)
	if !ok {
		return nil, fmt.Errorf("mslr: no probe direction over %d rows", m)
	}
	v = append(v, first)
	for j := 0; j < k; j++ {
		wj := make([]float64, m)
		apply(wj, v[j])
		for _, x := range wj {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("mslr: Schur residual probe %d is not finite", j)
			}
		}
		w = append(w, wj)
		if j+1 == k {
			break
		}
		cand := append([]float64(nil), wj...)
		if !orthonormalize(cand, v) {
			var ok bool
			if cand, ok = randomOrthonormal(m, v, rng); !ok {
				k = j + 1 // deflated: the reachable space is exhausted
				break
			}
		}
		v = append(v, cand)
	}
	d := sparse.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			h := dot(v[i], w[j])
			if i == j {
				d.Set(i, j, 1-h)
			} else {
				d.Set(i, j, -h)
			}
		}
	}
	hLU, err := d.Factor()
	if err != nil {
		return nil, nil // singular I−H: fall back to the identity correction
	}
	return &lowRank{
		k:   k,
		v:   v,
		hLU: hLU,
		ck:  make([]float64, k),
		dk:  make([]float64, k),
	}, nil
}
