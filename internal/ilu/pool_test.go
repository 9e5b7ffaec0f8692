package ilu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"parapre/internal/dsys"
	"parapre/internal/sparse"
)

// rankBlocks distributes a over p ranks in strips of consecutive rows and
// returns every rank's owned block, in dsys's internal-first ordering —
// what Block 2 and Schur 1 hand to ILUT.
func rankBlocks(a *sparse.CSR, p int) []*sparse.CSR {
	part := make([]int, a.Rows)
	for i := range part {
		part[i] = i * p / a.Rows
	}
	var out []*sparse.CSR
	for _, s := range dsys.Distribute(a, make([]float64, a.Rows), part, p) {
		out = append(out, s.OwnedBlock())
	}
	return out
}

// factorDigest is the SHA-256 of everything a factor holds: both
// triangles' row pointers, columns and value bits, the pivots and the
// pivot-fix count. A closing zero stands where the recorded digests
// carried a column-pivoting factor's swap count.
func factorDigest(f *LU) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(int64(f.N()))
	for _, t := range viewsOf(f) {
		put(int64(len(t.col)))
		put(t.ptr)
		put(t.col)
		put(t.val)
	}
	put(f.piv)
	put(int64(f.PivotFixes))
	put(int64(0))
	return hex.EncodeToString(h.Sum(nil))
}

// digestMatrices are the inputs of TestILUTFactorDigests: the rank blocks
// of the 2-D Laplacian, the SUPG convection–diffusion and the elasticity
// operators, a Laplacian whose order needs two summary words of the
// ordered set, the far arrow, a random block with fill everywhere, two
// matrices with a structurally zero and a randomly weak diagonal, and the
// orders around one word of the set.
func digestMatrices() []namedMatrix {
	var out []namedMatrix
	for _, m := range []namedMatrix{{"laplacian2d", lap2D(40)}, {"convdiff", convDiff(33)}, {"elasticity", elasticity(17)}} {
		for r, b := range rankBlocks(m.a, 4) {
			out = append(out, namedMatrix{fmt.Sprintf("%s/rank%d", m.name, r), b})
		}
	}
	out = append(out,
		namedMatrix{"laplacian2d/n=4900", lap2D(70)},
		namedMatrix{"arrow/n=300", farArrow(300)},
		namedMatrix{"random/n=500", randSPDish(rand.New(rand.NewSource(8)), 500, 0.02)},
		namedMatrix{"shifted/n=200", shiftedSystem(200)},
		namedMatrix{"weak-diagonal/n=300", weakDiagonal(rand.New(rand.NewSource(31)), 300, 0.03)},
		namedMatrix{"n=0", sparse.NewCSR(0, 0, 0)},
	)
	for _, n := range []int{1, 63, 64, 65} {
		out = append(out, namedMatrix{fmt.Sprintf("n=%d", n), randSPDish(rand.New(rand.NewSource(int64(n))), n, 0.2)})
	}
	return out
}

// shiftedSystem builds a matrix with a structurally zero diagonal (a
// circulant shift plus small noise): ILUT refuses its rows.
func shiftedSystem(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		coo.Add(i, (i+1)%n, 5)   // dominant off-diagonal
		coo.Add(i, (i+3)%n, 0.5) // some extra structure
		coo.Add(i, i, 0)         // explicit zero diagonal
	}
	return coo.ToCSR()
}

// weakDiagonal is a random matrix whose diagonal is a tenth the size of
// its off-diagonal entries.
func weakDiagonal(rng *rand.Rand, n int, density float64) *sparse.CSR {
	coo := sparse.NewCOO(n, n, int(float64(n*n)*density)+n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 0.1*rng.NormFloat64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// ilutDigests were recorded at commit cab0db3, when a column heap ordered
// the L part of the working row and nothing was pooled.
var ilutDigests = map[string]string{
	"arrow/n=300/ILUT":         "d1f486723ea94b44dfcde1f08742a7b696c627611564d2da701e527af7b39194",
	"convdiff/rank0/ILUT":      "4150a97e3ed041e4b3f4152dd5737297f4147e05867efef40849abdc33ce2067",
	"convdiff/rank1/ILUT":      "56899af134704ff8fa191a301d2632bc447c5df5a75fec5dd2f0cb9ff914bf0d",
	"convdiff/rank2/ILUT":      "dc4c9104244baf6b2573da920abf6105f37c14ce0dff027547ec37c012523957",
	"convdiff/rank3/ILUT":      "a14c83b55c0ca77800c1b6fb79c1a7c10c3e66daab52da8513f53b7d38a3e65d",
	"elasticity/rank0/ILUT":    "0278b1b94cff8d9b62b985b71ee6a964752e252c8daa0a70ed4c13ddad9fd6bd",
	"elasticity/rank1/ILUT":    "3d3e4d9252b1bf367b9e3a0fdca6d5f4cbe873b643e5cd5999427961dd082a75",
	"elasticity/rank2/ILUT":    "08f3dd4dd237ed31ade99bd43e6976cf846330a0c30a23640f98eff23157e332",
	"elasticity/rank3/ILUT":    "e45c53a7e300b206591e27c7260f441d47b78731b4ffcd308fc9c34cbe812014",
	"laplacian2d/n=4900/ILUT":  "6cf6b46765b6dcbf2885de5317e7793d012021e7f2ba97218c773b97b4b3854f",
	"laplacian2d/rank0/ILUT":   "fc031a75fe89db56c416e25adfe91c3e266b2a55887f80bb9b63d529098d0742",
	"laplacian2d/rank1/ILUT":   "b5a356095433f9b4541c4c72661691fa88a0d84c300836d2fb901db21f21d1ef",
	"laplacian2d/rank2/ILUT":   "b5a356095433f9b4541c4c72661691fa88a0d84c300836d2fb901db21f21d1ef",
	"laplacian2d/rank3/ILUT":   "65e1d85b4914716a2e3eef470c872a73b9b75c04c5ebdc8bbc98131c0e451865",
	"n=0/ILUT":                 "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
	"n=1/ILUT":                 "a8594ad268ece3d43ee1bd29770ab01aac1d47ed0efcfc7080ff33394fd8ac18",
	"n=63/ILUT":                "645be1279cf8cd98e980fee71f2afac506d41b7474237d4330d5c14c93b9fee3",
	"n=64/ILUT":                "c16b34834c2c259fbfa25aac470a8cb838aea2c16ccee2fa570be8620e241b70",
	"n=65/ILUT":                "96fa6024536e7022433ac6a0653a60d522129f7fab189f8e6e765e107825f52e",
	"random/n=500/ILUT":        "530b2e7d8c518929b4e4d2e90cae9b9a598d183e2b2ca94290518c312b909e6b",
	"shifted/n=200/ILUT":       "64693cb72c4474908120fe1eaa3151a72b42b85edba5a91e5852f8e3f550ee0f",
	"weak-diagonal/n=300/ILUT": "12ec8b8c3fbd6bd4995c86dd19779f8bdae852f38b52906968593876c334f5ad",
}

// TestILUTFactorDigests pins every bit of the ILUT factors to the parent
// commit's.
func TestILUTFactorDigests(t *testing.T) {
	got := map[string]string{}
	for _, m := range digestMatrices() {
		f, err := ILUT(m.a, DefaultILUT())
		if err != nil {
			t.Fatalf("%s: ILUT: %v", m.name, err)
		}
		got[m.name+"/ILUT"] = factorDigest(f)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != ilutDigests[name] {
			t.Errorf("%q: %q, // recorded: %q", name, got[name], ilutDigests[name])
		}
	}
	if len(got) != len(ilutDigests) {
		t.Errorf("%d factors digested, %d recorded", len(got), len(ilutDigests))
	}
}

// factorILUT is ILUT under the default options, with a digest of all the
// factor holds, recomputed on every call.
func factorILUT(a *sparse.CSR) (*LU, func() string, error) {
	f, err := ILUT(a, DefaultILUT())
	return f, func() string { return factorDigest(f) }, err
}

// TestPooledBuffersNeverAlias factors A, then B and A again out of the
// buffers the earlier factorizations returned to the pool. A's first
// factor must keep its bits throughout — also when the later factors are
// overwritten — the second A must have the first one's bits, and no factor
// may hold a slice with spare capacity, which a pooled buffer, sized from
// a bound, always has.
func TestPooledBuffersNeverAlias(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	a, b := lap2D(30), convDiff(25)
	fa, digestA, err := factorILUT(a)
	if err != nil {
		t.Fatal(err)
	}
	before := digestA()
	fb, _, err := factorILUT(b)
	if err != nil {
		t.Fatal(err)
	}
	fa2, digestA2, err := factorILUT(a)
	if err != nil {
		t.Fatal(err)
	}
	if digestA() != before {
		t.Error("the factor of A changed while later factors were built")
	}
	if digestA2() != before {
		t.Error("A factors to other bits out of recycled buffers")
	}
	for _, f := range []*LU{fa, fb, fa2} {
		views := viewsOf(f)
		for k, v := range views {
			if cap(v.ptr) != len(v.ptr) || v.colSpare != 0 {
				t.Errorf("kept index slices of triangle %d have %d and %d spare entries", k, cap(v.ptr)-len(v.ptr), v.colSpare)
			}
		}
		for k, s := range [][]float64{views[0].val, views[1].val, f.piv} {
			if cap(s) != len(s) {
				t.Errorf("kept value slice %d has cap %d, len %d", k, cap(s), len(s))
			}
		}
	}
	for _, f := range []*LU{fb, fa2} {
		spoil(f)
	}
	if digestA() != before {
		t.Error("writing into a later factor reached A's")
	}
}

// TestILUTSteadyStateAllocBytes factors the same block twice: the second
// factorization finds its build buffers in the pool and allocates the kept
// factor plus scratch proportional to n — not the two bound-sized
// triangles (12 bytes per entry of ilutCap each) on top.
func TestILUTSteadyStateAllocBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	a := lap2D(40)
	n := a.Rows
	bound := 2 * 12 * ilutCap(n, a.NNZ(), DefaultILUT().LFil)
	// measure returns the fewest bytes one of several repeated
	// factorizations allocated: under the race detector sync.Pool drops a
	// quarter of what is put into it, at random, so a single repetition
	// may find the pool empty.
	measure := func() (allocated, kept int) {
		allocated = math.MaxInt
		for rep := 0; rep < 17; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f, err := ILUT(a, DefaultILUT())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			kept = heldBy(f)
			if rep > 0 { // the first repetition fills the pool
				allocated = min(allocated, int(after.TotalAlloc-before.TotalAlloc))
			}
		}
		return allocated, kept
	}
	allocated, kept := measure()
	// Scratch: the scatter workspace and its mask, two column lists and the
	// ordered set — about 40 bytes per row.
	limit := kept + 256*n + 1<<14
	if allocated > limit {
		t.Errorf("second factorization allocated %d bytes, want at most the kept %d + O(n) = %d (the two build buffers are %d)",
			allocated, kept, limit, bound)
	}
	if limit >= kept+bound {
		t.Fatalf("a limit of %d does not tell pooled from unpooled build buffers (%d more)", limit, bound)
	}
}
