package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/mmio"
	"parapre/internal/order"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

// checkSpMVDense compares the sparse kernels against dense references.
func checkSpMVDense(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 2, 7, 16}
	if !cfg.Quick {
		sizes = append(sizes, 33, 61)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 100*int64(n) + trial
			a := randomDiagDominant(n, 0.3, seed)
			ad := a.Dense()
			x := randomRHS(n, seed)

			y := make([]float64, n)
			a.MulVecTo(y, x)
			yd := ad.MulVec(x)
			if d := maxAbsDiff(y, yd); d > 1e-13*denseScale(ad) {
				out = append(out, Violation{"spmv-dense",
					fmt.Sprintf("MulVecTo differs from dense mat-vec by %g", d),
					repro(n, seed, "")})
			}

			// MulVecAdd: y + 2·A·x, and MulVecSub: y − A·x.
			y2 := append([]float64(nil), x...)
			a.MulVecAdd(y2, 2, x)
			for i := range yd {
				yd[i] = x[i] + 2*yd[i]
			}
			if d := maxAbsDiff(y2, yd); d > 1e-12*denseScale(ad) {
				out = append(out, Violation{"spmv-dense",
					fmt.Sprintf("MulVecAdd differs from dense reference by %g", d),
					repro(n, seed, "")})
			}

			// Transpose: (Aᵀ)ᵀ = A exactly, and Aᵀ dense-equal.
			at := a.Transpose()
			if !at.Transpose().Equal(a) {
				out = append(out, Violation{"spmv-dense",
					"double transpose does not reproduce the matrix", repro(n, seed, "")})
			}
			atd := at.Dense()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					//lint:ignore floatcmp transpose copies values, bit-exactness is the oracle
					if atd.At(i, j) != ad.At(j, i) {
						out = append(out, Violation{"spmv-dense",
							fmt.Sprintf("transpose entry (%d,%d) = %g, want %g", i, j, atd.At(i, j), ad.At(j, i)),
							repro(n, seed, "")})
					}
				}
			}

			// Dot: deterministic blocked reduction vs plain accumulation.
			u := randomRHS(n, seed+1)
			got := sparse.Dot(x, u)
			var want float64
			for i := range x {
				want += x[i] * u[i]
			}
			if d := math.Abs(got - want); d > 1e-12*(1+math.Abs(want)) {
				out = append(out, Violation{"spmv-dense",
					fmt.Sprintf("Dot = %g, plain accumulation %g", got, want), repro(n, seed, "")})
			}
		}
	}
	return out
}

// checkPermIdentity validates permutation algebra: applying a permutation
// and scattering back is the identity (P·Pᵀ = I), RCM produces a valid
// permutation on arbitrary patterns, and PermuteSym agrees with the dense
// congruence.
func checkPermIdentity(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 2, 9, 24}
	if !cfg.Quick {
		sizes = append(sizes, 57)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 200*int64(n) + trial
			a := randomSPD(n, 0.25, seed)
			p := order.RCM(a)
			if !p.IsValid() {
				out = append(out, Violation{"perm-identity",
					"RCM returned an invalid permutation", repro(n, seed, "")})
				continue
			}
			// P·Pᵀ = I through the vector round trip.
			x := randomRHS(n, seed)
			y := make([]float64, n)
			z := make([]float64, n)
			p.ApplyVecTo(y, x)
			p.ScatterVecTo(z, y)
			if d := maxAbsDiff(x, z); d != 0 {
				out = append(out, Violation{"perm-identity",
					fmt.Sprintf("scatter∘apply differs from identity by %g", d), repro(n, seed, "")})
			}
			// Inverse inverts.
			inv := p.Inverse()
			for i := range p {
				if inv[p[i]] != i {
					out = append(out, Violation{"perm-identity",
						fmt.Sprintf("Inverse()[p[%d]] = %d", i, inv[p[i]]), repro(n, seed, "")})
					break
				}
			}
			// PermuteSym = dense congruence B(i,j) = A(p[i], p[j]).
			b := sparse.PermuteSym(a, p)
			bd := b.Dense()
			ad := a.Dense()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					//lint:ignore floatcmp permutation moves values without arithmetic, bit-exactness is the oracle
					if bd.At(i, j) != ad.At(p[i], p[j]) {
						out = append(out, Violation{"perm-identity",
							fmt.Sprintf("PermuteSym entry (%d,%d) = %g, dense congruence %g",
								i, j, bd.At(i, j), ad.At(p[i], p[j])),
							repro(n, seed, "")})
					}
				}
			}
		}
	}
	return out
}

// checkPartitionValid exercises the general graph partitioner on the edge
// cases that used to break it: p = 1, p ≥ vertex count, and disconnected
// graphs. Every vertex must be assigned a part in range, and no part may
// be empty unless p exceeds the vertex count.
func checkPartitionValid(cfg Config) []Violation {
	var out []Violation
	sizes := []int{2, 5, 16}
	if !cfg.Quick {
		sizes = append(sizes, 40, 77)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 300*int64(n) + trial
			for _, disconnect := range []bool{false, true} {
				g := randomGraph(n, disconnect, seed)
				for _, p := range []int{0, 1, 2, 3, n - 1, n, n + 3} {
					part := func() (part []int) {
						defer func() {
							if r := recover(); r != nil {
								out = append(out, Violation{"partition-valid",
									fmt.Sprintf("General(p=%d, disconnected=%v) panicked: %v", p, disconnect, r),
									repro(n, seed, fmt.Sprintf("p=%d", p))})
								part = nil
							}
						}()
						part, err := partition.General(g, p, seed)
						var pe *partition.PartitionError
						switch {
						case p < 1 && !errors.As(err, &pe):
							out = append(out, Violation{"partition-valid",
								fmt.Sprintf("General(p=%d) must return a typed *PartitionError, got %v", p, err),
								repro(n, seed, fmt.Sprintf("p=%d", p))})
							return nil
						case p >= 1 && err != nil:
							out = append(out, Violation{"partition-valid",
								fmt.Sprintf("General(p=%d, disconnected=%v) failed: %v", p, disconnect, err),
								repro(n, seed, fmt.Sprintf("p=%d", p))})
							return nil
						case p < 1:
							return nil
						}
						return part
					}()
					if part == nil {
						continue
					}
					out = append(out, validatePartition(part, n, p, disconnect, seed)...)
				}
			}
		}
	}
	return out
}

func validatePartition(part []int, n, p int, disconnect bool, seed int64) []Violation {
	var out []Violation
	ctx := fmt.Sprintf("p=%d disconnected=%v", p, disconnect)
	if len(part) != n {
		return []Violation{{"partition-valid",
			fmt.Sprintf("partition length %d, want %d", len(part), n), repro(n, seed, ctx)}}
	}
	sizes := make([]int, p)
	for v, q := range part {
		if q < 0 || q >= p {
			return []Violation{{"partition-valid",
				fmt.Sprintf("vertex %d assigned out-of-range part %d", v, q), repro(n, seed, ctx)}}
		}
		sizes[q]++
	}
	if p <= n {
		for q, sz := range sizes {
			if sz == 0 {
				out = append(out, Violation{"partition-valid",
					fmt.Sprintf("part %d empty with p=%d ≤ n=%d", q, p, n), repro(n, seed, ctx)})
			}
		}
	}
	return out
}

// randomGraph builds a connected random graph, optionally split into two
// disconnected halves.
func randomGraph(n int, disconnect bool, seed int64) *partition.Graph {
	rng := rand.New(rand.NewSource(seed ^ 0x6a7))
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	half := n
	if disconnect && n >= 4 {
		half = n / 2
	}
	link := func(a, b int) {
		if a != b {
			adj[a][b] = true
			adj[b][a] = true
		}
	}
	// Spanning chains keep each component connected.
	for i := 1; i < half; i++ {
		link(i-1, i)
	}
	for i := half + 1; i < n; i++ {
		link(i-1, i)
	}
	// Random extra edges within components.
	for e := 0; e < n; e++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if (a < half) == (b < half) {
			link(a, b)
		}
	}
	g := &partition.Graph{Ptr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if adj[i][j] {
				g.Adj = append(g.Adj, j)
			}
		}
		g.Ptr[i+1] = len(g.Adj)
	}
	return g
}

// checkCOOCSR verifies triplet assembly: duplicates sum, and the result
// matches a dense accumulation entry for entry.
func checkCOOCSR(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 3, 12}
	if !cfg.Quick {
		sizes = append(sizes, 29)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 400*int64(n) + trial
			rng := rand.New(rand.NewSource(seed))
			coo := sparse.NewCOO(n, n, 4*n)
			ref := sparse.NewDense(n, n)
			entries := 5 * n
			for e := 0; e < entries; e++ {
				i, j := rng.Intn(n), rng.Intn(n)
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				ref.Add(i, j, v)
			}
			a := coo.ToCSR()
			if err := a.CheckValid(); err != nil {
				out = append(out, Violation{"coo-csr", fmt.Sprintf("ToCSR invalid: %v", err), repro(n, seed, "")})
				continue
			}
			ad := a.Dense()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(ad.At(i, j) - ref.At(i, j)); d > 1e-13*(1+math.Abs(ref.At(i, j))) {
						out = append(out, Violation{"coo-csr",
							fmt.Sprintf("assembled (%d,%d) = %g, dense accumulation %g", i, j, ad.At(i, j), ref.At(i, j)),
							repro(n, seed, "")})
					}
				}
			}
		}
	}
	return out
}

// checkMMIORoundTrip verifies write→read→write stability: the re-read
// matrix equals the in-memory CSR exactly and the second write is
// byte-identical to the first.
func checkMMIORoundTrip(cfg Config) []Violation {
	var out []Violation
	sizes := []int{1, 2, 8}
	if !cfg.Quick {
		sizes = append(sizes, 23)
	}
	for _, n := range sizes {
		for trial := int64(0); trial < 3; trial++ {
			seed := cfg.Seed + 500*int64(n) + trial
			a := randomDiagDominant(n, 0.3, seed)
			var w1 bytes.Buffer
			if err := mmio.WriteMatrix(&w1, a); err != nil {
				out = append(out, Violation{"mmio-roundtrip", fmt.Sprintf("write: %v", err), repro(n, seed, "")})
				continue
			}
			back, err := mmio.ReadMatrix(bytes.NewReader(w1.Bytes()))
			if err != nil {
				out = append(out, Violation{"mmio-roundtrip", fmt.Sprintf("read back: %v", err), repro(n, seed, "")})
				continue
			}
			if !back.Equal(a) {
				out = append(out, Violation{"mmio-roundtrip",
					"re-read matrix differs from the in-memory CSR", repro(n, seed, "")})
				continue
			}
			var w2 bytes.Buffer
			if err := mmio.WriteMatrix(&w2, back); err != nil {
				out = append(out, Violation{"mmio-roundtrip", fmt.Sprintf("second write: %v", err), repro(n, seed, "")})
				continue
			}
			if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
				out = append(out, Violation{"mmio-roundtrip",
					"second write is not byte-identical to the first", repro(n, seed, "")})
			}
		}
	}
	return out
}

// checkDistributeReassembly distributes random systems and reassembles
// the global matrix from the per-rank local matrices: every entry must
// come back bit-identically, every owned unknown exactly once.
func checkDistributeReassembly(cfg Config) []Violation {
	var out []Violation
	sizes := []int{4, 9, 20}
	ps := []int{2, 3}
	if !cfg.Quick {
		sizes = append(sizes, 45)
		ps = append(ps, 5)
	}
	for _, n := range sizes {
		for _, p := range ps {
			if p > n {
				continue
			}
			for trial := int64(0); trial < 2; trial++ {
				seed := cfg.Seed + 600*int64(n) + trial
				for _, nonsym := range []bool{false, true} {
					var a *sparse.CSR
					if nonsym {
						a = randomNonsymPattern(n, 0.2, seed)
					} else {
						a = randomDiagDominant(n, 0.2, seed)
					}
					b := randomRHS(n, seed)
					g := core.PatternGraph(a)
					part, err := partition.General(g, p, seed)
					if err != nil {
						out = append(out, Violation{"distribute-reassembly",
							fmt.Sprintf("partition failed: %v", err), repro(n, seed, fmt.Sprintf("P=%d", p))})
						continue
					}
					systems := dsys.Distribute(a, b, part, p)
					out = append(out, reassembleAndCompare(a, b, part, systems, n, seed, p)...)
				}
			}
		}
	}
	return out
}

func reassembleAndCompare(a *sparse.CSR, b []float64, part []int, systems []*dsys.System, n int, seed int64, p int) []Violation {
	var out []Violation
	ctx := fmt.Sprintf("P=%d", p)
	seen := make([]bool, n)
	ref := sparse.NewDense(n, n)
	for _, s := range systems {
		if err := s.CheckStructure(); err != nil {
			return []Violation{{"distribute-reassembly",
				fmt.Sprintf("rank %d structure: %v", s.Rank, err), repro(n, seed, ctx)}}
		}
		// Local column l maps to GlobalIDs[l] for l < NLoc, else
		// ExtGlobal[l-NLoc].
		colG := func(l int) int {
			if l < s.NLoc() {
				return s.GlobalIDs[l]
			}
			return s.ExtGlobal[l-s.NLoc()]
		}
		for l, g := range s.GlobalIDs {
			if seen[g] {
				out = append(out, Violation{"distribute-reassembly",
					fmt.Sprintf("global row %d owned by more than one rank", g), repro(n, seed, ctx)})
			}
			seen[g] = true
			//lint:ignore floatcmp distribution copies rhs entries, bit-exactness is the oracle
			if b[g] != s.B[l] {
				out = append(out, Violation{"distribute-reassembly",
					fmt.Sprintf("rhs entry %d: local %g, global %g", g, s.B[l], b[g]), repro(n, seed, ctx)})
			}
			cols, vals := s.A.Row(l)
			for k, lj := range cols {
				ref.Add(g, colG(int(lj)), vals[k])
			}
		}
	}
	for g, ok := range seen {
		if !ok {
			out = append(out, Violation{"distribute-reassembly",
				fmt.Sprintf("global row %d owned by no rank", g), repro(n, seed, ctx)})
		}
	}
	ad := a.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			//lint:ignore floatcmp reassembly sums disjoint copies, bit-exactness is the oracle
			if ref.At(i, j) != ad.At(i, j) {
				out = append(out, Violation{"distribute-reassembly",
					fmt.Sprintf("reassembled (%d,%d) = %g, global %g", i, j, ref.At(i, j), ad.At(i, j)),
					repro(n, seed, ctx)})
			}
		}
	}
	return out
}

// maxAbsDiff returns max_i |x[i] − y[i]|.
func maxAbsDiff(x, y []float64) float64 {
	var m float64
	for i := range x {
		d := math.Abs(x[i] - y[i])
		if d > m {
			m = d
		}
	}
	return m
}

// denseScale returns a magnitude scale for tolerance normalization.
func denseScale(d *sparse.Dense) float64 {
	m := 1.0
	for _, v := range d.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
