package verify

import (
	"fmt"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/schur"
	"parapre/internal/sparse"
)

// denseSchurRef assembles the exact Schur complement C − E·B⁻¹·F of the
// global matrix with the listed interface unknowns ordered last, using
// only dense linear algebra. This is the reference every sparse and
// matrix-free Schur path is compared against.
func denseSchurRef(a *sparse.CSR, ifaceGlobals []int) (*sparse.Dense, error) {
	n := a.Rows
	isI := make([]bool, n)
	for _, g := range ifaceGlobals {
		isI[g] = true
	}
	var internals []int
	for i := 0; i < n; i++ {
		if !isI[i] {
			internals = append(internals, i)
		}
	}
	nB := len(internals)
	nI := len(ifaceGlobals)
	ad := a.Dense()
	bb := sparse.NewDense(nB, nB)
	for i, gi := range internals {
		for j, gj := range internals {
			bb.Set(i, j, ad.At(gi, gj))
		}
	}
	lu, err := bb.Factor()
	if err != nil {
		return nil, fmt.Errorf("dense B factor: %w", err)
	}
	s := sparse.NewDense(nI, nI)
	col := make([]float64, nB)
	for j, gj := range ifaceGlobals {
		for i, gi := range internals {
			col[i] = ad.At(gi, gj) // F column j
		}
		x := lu.Solve(col)
		for i, gi := range ifaceGlobals {
			v := ad.At(gi, gj) // C entry
			for q, gq := range internals {
				v -= ad.At(gi, gq) * x[q]
			}
			s.Set(i, j, v)
		}
	}
	return s, nil
}

// checkSchurTrailing verifies the trailing/leading sub-factorization
// identities on complete factors: ExtractLeading multiplies back to the
// B block, and ExtractTrailing multiplies back to the exact Schur
// complement of the trailing unknowns — including the degenerate splits
// k = 0 and k = n.
func checkSchurTrailing(cfg Config) []Violation {
	var out []Violation
	sizes := []int{2, 6, 12}
	if !cfg.Quick {
		sizes = append(sizes, 25)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 1100*int64(n) + trial
			a := randomDiagDominant(n, 0.35, seed)
			ad := a.Dense()
			scale := denseScale(ad)
			f, err := ilu.ILUT(a, completeOpts)
			if err != nil {
				out = append(out, Violation{"schur-trailing", fmt.Sprintf("ILUT: %v", err), repro(n, seed, "")})
				continue
			}
			for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
				if k < 0 || k > n {
					continue
				}
				lead, err := ilu.ExtractLeading(f, k)
				if err != nil {
					out = append(out, Violation{"schur-trailing", fmt.Sprintf("ExtractLeading(%d): %v", k, err), repro(n, seed, "")})
					continue
				}
				trail, err := ilu.ExtractTrailing(f, k)
				if err != nil {
					out = append(out, Violation{"schur-trailing", fmt.Sprintf("ExtractTrailing(%d): %v", k, err), repro(n, seed, "")})
					continue
				}
				// Leading product = B block of A exactly (incomplete
				// elimination of the first k rows never touches later rows;
				// with no dropping it is the complete LU of B).
				lp := lead.Product()
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if d := absf(lp.At(i, j) - ad.At(i, j)); d > 1e-9*scale {
							out = append(out, Violation{"schur-trailing",
								fmt.Sprintf("leading product (%d,%d) off by %g at split %d", i, j, d, k),
								repro(n, seed, fmt.Sprintf("k=%d", k))})
						}
					}
				}
				// Trailing product = exact Schur complement of [k, n).
				iface := make([]int, n-k)
				for i := range iface {
					iface[i] = k + i
				}
				var sd *sparse.Dense
				if k == 0 {
					sd = ad
				} else {
					sd, err = denseSchurRef(a, iface)
					if err != nil {
						out = append(out, Violation{"schur-trailing", err.Error(), repro(n, seed, fmt.Sprintf("k=%d", k))})
						continue
					}
				}
				tp := trail.Product()
				if d := denseMaxDiff(tp, sd); d > 1e-8*scale {
					out = append(out, Violation{"schur-trailing",
						fmt.Sprintf("trailing product differs from dense Schur complement by %g at split %d", d, k),
						repro(n, seed, fmt.Sprintf("k=%d", k))})
				}
			}
		}
	}
	return out
}

// checkSchurOperator verifies the distributed matrix-free Schur operator:
// applied column by column to unit vectors at P ranks, it must reproduce
// the dense global C − E·B⁻¹·F — on symmetric and on structurally
// unsymmetric patterns (the classification bug the harness caught).
func checkSchurOperator(cfg Config) []Violation {
	var out []Violation
	type gen struct {
		name string
		make func(n int, seed int64) *sparse.CSR
	}
	gens := []gen{
		{"sym-pattern", func(n int, seed int64) *sparse.CSR { return randomDiagDominant(n, 0.35, seed) }},
		{"nonsym-pattern", func(n int, seed int64) *sparse.CSR { return randomNonsymPattern(n, 0.3, seed) }},
	}
	sizes := []int{6, 10}
	ps := []int{2, 3}
	if !cfg.Quick {
		sizes = append(sizes, 17)
		ps = append(ps, 4)
	}
	for _, g := range gens {
		for _, n := range sizes {
			for _, p := range ps {
				seed := cfg.Seed + 1200*int64(n) + int64(p)
				a := g.make(n, seed)
				out = append(out, schurOperatorOne(g.name, a, n, p, seed)...)
			}
		}
	}
	return out
}

func schurOperatorOne(gname string, a *sparse.CSR, n, p int, seed int64) []Violation {
	var out []Violation
	tag := func(extra string) string { return repro(n, seed, fmt.Sprintf("P=%d gen=%s %s", p, gname, extra)) }
	part := randomPartition(n, p, seed)
	b := make([]float64, n)
	systems := dsys.Distribute(a, b, part, p)

	ops := make([]*schur.Iface, p)
	for r, s := range systems {
		bf, err := ilu.ILUT(s.Window(dsys.PartB).CSR(), completeOpts)
		if err != nil {
			return []Violation{{"schur-operator", fmt.Sprintf("rank %d factor B: %v", r, err), tag("")}}
		}
		op, err := schur.NewImplicit(s, bf)
		if err != nil {
			return []Violation{{"schur-operator", fmt.Sprintf("rank %d NewImplicit: %v", r, err), tag("")}}
		}
		ops[r] = op
	}

	var ifaceGlobals []int
	offs := make([]int, p+1)
	for r, s := range systems {
		ifaceGlobals = append(ifaceGlobals, s.GlobalIDs[s.NInt:]...)
		offs[r+1] = offs[r] + s.NIface()
	}
	nI := len(ifaceGlobals)
	if nI == 0 {
		return nil // fully decoupled partition: nothing to check
	}
	sd, err := denseSchurRef(a, ifaceGlobals)
	if err != nil {
		return []Violation{{"schur-operator", err.Error(), tag("")}}
	}
	scale := denseScale(sd)

	x := make([]float64, nI)
	for col := 0; col < nI; col++ {
		for i := range x {
			x[i] = 0
		}
		x[col] = 1
		y := make([]float64, nI)
		mvErrs := make([]error, p)
		dist.Run(p, dist.LinuxCluster(), func(c *dist.Comm) {
			r := c.Rank()
			xl := x[offs[r]:offs[r+1]]
			yl := make([]float64, offs[r+1]-offs[r])
			mvErrs[r] = ops[r].MatVec(c, ops[r].NewWork(), yl, xl)
			copy(y[offs[r]:offs[r+1]], yl)
		})
		for r, err := range mvErrs {
			if err != nil {
				out = append(out, Violation{"schur-operator",
					fmt.Sprintf("rank %d MatVec: %v", r, err), tag(fmt.Sprintf("col=%d", col))})
			}
		}
		for i := 0; i < nI; i++ {
			if d := absf(y[i] - sd.At(i, col)); d > 1e-8*(1+scale) {
				out = append(out, Violation{"schur-operator",
					fmt.Sprintf("S[%d,%d]: operator %g, dense %g", i, col, y[i], sd.At(i, col)),
					tag(fmt.Sprintf("col=%d", col))})
			}
		}
		if len(out) > 4 {
			break // one broken operator floods every column; cap the noise
		}
	}
	return out
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
