package verify

import (
	"errors"
	"fmt"
	"math"

	"parapre/internal/ilu"
	"parapre/internal/sparse"
)

// completeOpts removes all dropping: ILUT(0, unlimited) is a complete LU
// without pivoting, which turns the incomplete machinery into an exact
// oracle.
var completeOpts = ilu.ILUTOptions{Tau: 0, LFil: 0}

// checkFactorComplete verifies the factorization identities that hold
// exactly (up to rounding) when no dropping occurs: L·U reproduces A, and
// factor solves agree with the dense LU reference.
func checkFactorComplete(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 2, 6, 14}
	if !cfg.Quick {
		sizes = append(sizes, 31, 52)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 700*int64(n) + trial
			a := randomDiagDominant(n, 0.35, seed)
			ad := a.Dense()
			scale := denseScale(ad)

			f, err := ilu.ILUT(a, completeOpts)
			if err != nil {
				out = append(out, Violation{"factor-complete", fmt.Sprintf("ILUT: %v", err), repro(n, seed, "")})
				continue
			}
			// Identity 1: the product of complete factors is A.
			prod := f.Product()
			if d := denseMaxDiff(prod, ad); d > 1e-10*scale {
				v := Violation{"factor-complete",
					fmt.Sprintf("complete ILUT product differs from A by %g", d), ""}
				mn, ms := minimize(func(n int, s int64) bool {
					aa := randomDiagDominant(n, 0.35, s)
					ff, err := ilu.ILUT(aa, completeOpts)
					if err != nil {
						return false
					}
					return denseMaxDiff(ff.Product(), aa.Dense()) > 1e-10*denseScale(aa.Dense())
				}, n, seed, 1)
				v.Repro = repro(mn, ms, "")
				out = append(out, v)
			}
			// Identity 2: the factor solve equals the dense LU solve.
			lu, err := ad.Factor()
			if err != nil {
				out = append(out, Violation{"factor-complete", fmt.Sprintf("dense factor: %v", err), repro(n, seed, "")})
				continue
			}
			b := randomRHS(n, seed)
			x := make([]float64, n)
			f.Solve(x, b)
			xd := lu.Solve(b)
			if d := maxAbsDiff(x, xd); d > 1e-8*(1+maxAbs(xd)) {
				out = append(out, Violation{"factor-complete",
					fmt.Sprintf("complete ILUT solve differs from dense LU solve by %g", d), repro(n, seed, "")})
			}
		}
	}
	return out
}

// checkFactorIncomplete verifies the triangular-solve wiring of truly
// incomplete factors: whatever pattern survived dropping, Solve must
// invert the stored factors exactly — (L·U)·Solve(r) = r up to rounding —
// and the factored pattern must never lose the diagonal.
func checkFactorIncomplete(cfg Config) []Violation {
	var out []Violation
	sizes := []int{2, 8, 18}
	if !cfg.Quick {
		sizes = append(sizes, 41)
	}
	opts := []ilu.ILUTOptions{
		{Tau: 1e-2, LFil: 3},
		{Tau: 1e-4, LFil: 8},
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 800*int64(n) + trial
			a := randomDiagDominant(n, 0.35, seed)
			factors := map[string]*ilu.LU{}
			if f, err := ilu.ILU0(a); err == nil {
				factors["ILU0"] = f
			} else {
				out = append(out, Violation{"factor-incomplete", fmt.Sprintf("ILU0: %v", err), repro(n, seed, "")})
			}
			for oi, opt := range opts {
				if f, err := ilu.ILUT(a, opt); err == nil {
					factors[fmt.Sprintf("ILUT#%d", oi)] = f
				} else {
					out = append(out, Violation{"factor-incomplete", fmt.Sprintf("ILUT: %v", err), repro(n, seed, "")})
				}
			}
			b := randomRHS(n, seed)
			for name, f := range factors {
				out = append(out, checkSolveInvertsFactor(name, f, b, n, seed)...)
			}
		}
	}
	return out
}

func checkSolveInvertsFactor(name string, f *ilu.LU, b []float64, n int, seed int64) []Violation {
	var out []Violation
	var lc, uc []int32
	for i := 0; i < f.N(); i++ {
		lc, _ = f.LRow(i, lc[:0])
		uc, _ = f.URow(i, uc[:0])
		if (len(lc) > 0 && int(lc[len(lc)-1]) >= i) || (len(uc) > 0 && int(uc[0]) <= i) {
			return []Violation{{"factor-incomplete",
				fmt.Sprintf("%s: row %d of L or U crosses the diagonal", name, i), repro(n, seed, "")}}
		}
		if p := f.Pivot(i); p == 0 || !isFinite(p) {
			return []Violation{{"factor-incomplete",
				fmt.Sprintf("%s: pivot %d is %g", name, i, p), repro(n, seed, "")}}
		}
	}
	x := make([]float64, f.N())
	f.Solve(x, b)
	// (L·U)·x must reproduce b: the solves are exact inverses of the
	// stored factors regardless of how much was dropped.
	prod := f.Product()
	r := prod.MulVec(x)
	if d := maxAbsDiff(r, b); d > 1e-9*(1+maxAbs(b))*(1+maxAbs(x)) {
		out = append(out, Violation{"factor-incomplete",
			fmt.Sprintf("%s: (L·U)·Solve(b) differs from b by %g", name, d), repro(n, seed, "")})
	}
	return out
}

// checkFactorIC verifies the incomplete Cholesky factors: Lt is exactly
// Lᵀ, the product L·Lᵀ is symmetric, a complete-pattern IC0 reproduces
// the SPD matrix, and its solve agrees with the dense reference.
func checkFactorIC(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 2, 7, 15}
	if !cfg.Quick {
		sizes = append(sizes, 33)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 900*int64(n) + trial
			// Dense-pattern SPD matrix: IC0 keeps the full lower triangle,
			// so the factorization is a complete Cholesky.
			a := randomSPD(n, 1.0, seed)
			ch, err := ilu.IC0(a)
			if err != nil {
				out = append(out, Violation{"factor-ic", fmt.Sprintf("IC0: %v", err), repro(n, seed, "")})
				continue
			}
			if ch.Fixes != 0 {
				out = append(out, Violation{"factor-ic",
					fmt.Sprintf("IC0 of an SPD matrix needed %d diagonal fixes", ch.Fixes), repro(n, seed, "")})
			}
			// Lt = Lᵀ exactly.
			if !ch.Lt.Equal(ch.L.Transpose()) {
				out = append(out, Violation{"factor-ic", "Lt is not the transpose of L", repro(n, seed, "")})
			}
			// L·Lᵀ = A (complete pattern) and symmetric by construction.
			ld := ch.L.Dense()
			prod := sparse.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for k := 0; k <= minInt2(i, j); k++ {
						s += ld.At(i, k) * ld.At(j, k)
					}
					prod.Set(i, j, s)
				}
			}
			ad := a.Dense()
			if d := denseMaxDiff(prod, ad); d > 1e-9*denseScale(ad) {
				out = append(out, Violation{"factor-ic",
					fmt.Sprintf("complete-pattern L·Lᵀ differs from A by %g", d), repro(n, seed, "")})
			}
			// Solve vs dense LU solve.
			lu, err := ad.Factor()
			if err != nil {
				out = append(out, Violation{"factor-ic", fmt.Sprintf("dense factor: %v", err), repro(n, seed, "")})
				continue
			}
			b := randomRHS(n, seed)
			z := make([]float64, n)
			ch.Solve(z, b)
			zd := lu.Solve(b)
			if d := maxAbsDiff(z, zd); d > 1e-8*(1+maxAbs(zd)) {
				out = append(out, Violation{"factor-ic",
					fmt.Sprintf("IC solve differs from dense solve by %g", d), repro(n, seed, "")})
			}
		}
	}
	return out
}

// checkFactorZeroPivot pins the zero-pivot contract: structurally zero
// rows are refused with a typed error wrapping ilu.ErrZeroPivot, and
// small-but-nonzero pivots are repaired and counted, never silently
// amplified beyond the documented 1/pivotRel bound.
func checkFactorZeroPivot(cfg Config) []Violation {
	var out []Violation
	for _, n := range []int{2, 5, 9} {
		for trial := int64(0); trial < 2; trial++ {
			seed := cfg.Seed + 1000*int64(n) + trial
			a := withZeroRow(randomDiagDominant(n, 0.4, seed), n/2)
			runs := map[string]func() error{
				"ILU0": func() error { _, err := ilu.ILU0(a); return err },
				"ILUT": func() error { _, err := ilu.ILUT(a, completeOpts); return err },
				"IC0":  func() error { _, err := ilu.IC0(a); return err },
			}
			for name, run := range runs {
				err := run()
				if err == nil {
					out = append(out, Violation{"factor-zero-pivot",
						fmt.Sprintf("%s accepted a structurally zero row", name),
						repro(n, seed, fmt.Sprintf("row=%d", n/2))})
					continue
				}
				if !errors.Is(err, ilu.ErrZeroPivot) {
					out = append(out, Violation{"factor-zero-pivot",
						fmt.Sprintf("%s error %v does not wrap ilu.ErrZeroPivot", name, err),
						repro(n, seed, "")})
				}
			}
		}
	}
	return out
}

// withZeroRow clears row r (and keeps the matrix otherwise intact).
func withZeroRow(a *sparse.CSR, r int) *sparse.CSR {
	coo := sparse.NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		if i == r {
			continue
		}
		cols, vals := a.Row(i)
		for k, j := range cols {
			coo.Add(i, int(j), vals[k])
		}
	}
	return coo.ToCSR()
}

func denseMaxDiff(a, b *sparse.Dense) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
