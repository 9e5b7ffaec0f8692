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
// pivot-fix count; for ILUTP also the column permutation and the swaps.
func factorDigest(f *LU, perm sparse.Perm, swaps int) string {
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
	for _, j := range perm {
		put(int64(j))
	}
	put(int64(swaps))
	return hex.EncodeToString(h.Sum(nil))
}

// digestMatrices are the inputs of TestILUTFactorDigests: the rank blocks
// of the 2-D Laplacian, the SUPG convection–diffusion and the elasticity
// operators, a Laplacian whose order needs two summary words of the
// ordered set, the far arrow, a random block with fill everywhere, two
// matrices ILUTP has to pivot on (a structurally zero and a randomly weak
// diagonal), and the orders around one word of the set.
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
	"arrow/n=300/ILUT":               "d1f486723ea94b44dfcde1f08742a7b696c627611564d2da701e527af7b39194",
	"arrow/n=300/ILUTP(0.1)":         "d2b550cbc674db116903fe2a61481502f694082d4b060bf555319028dd64c324",
	"arrow/n=300/ILUTP(1)":           "d2b550cbc674db116903fe2a61481502f694082d4b060bf555319028dd64c324",
	"convdiff/rank0/ILUT":            "4150a97e3ed041e4b3f4152dd5737297f4147e05867efef40849abdc33ce2067",
	"convdiff/rank0/ILUTP(0.1)":      "5a3e079b7726d87f1a9b24c031fdc98f3583bcd06f3142b541b8554879c0eb3e",
	"convdiff/rank0/ILUTP(1)":        "5a3e079b7726d87f1a9b24c031fdc98f3583bcd06f3142b541b8554879c0eb3e",
	"convdiff/rank1/ILUT":            "56899af134704ff8fa191a301d2632bc447c5df5a75fec5dd2f0cb9ff914bf0d",
	"convdiff/rank1/ILUTP(0.1)":      "a90a9ff29122a5deb3c9ebd6f07fff63391b8ea14cdfef19220cde970b55533f",
	"convdiff/rank1/ILUTP(1)":        "a90a9ff29122a5deb3c9ebd6f07fff63391b8ea14cdfef19220cde970b55533f",
	"convdiff/rank2/ILUT":            "dc4c9104244baf6b2573da920abf6105f37c14ce0dff027547ec37c012523957",
	"convdiff/rank2/ILUTP(0.1)":      "300f237f6bf02a719636f0e436f28df889b1d6d0879203fe9424c1c8d81ff0cc",
	"convdiff/rank2/ILUTP(1)":        "300f237f6bf02a719636f0e436f28df889b1d6d0879203fe9424c1c8d81ff0cc",
	"convdiff/rank3/ILUT":            "a14c83b55c0ca77800c1b6fb79c1a7c10c3e66daab52da8513f53b7d38a3e65d",
	"convdiff/rank3/ILUTP(0.1)":      "6e998926ec97d5e6fb3893c397a7b1dfaa78c7d0ed8b6f71b5ca423bfc7e801a",
	"convdiff/rank3/ILUTP(1)":        "6e998926ec97d5e6fb3893c397a7b1dfaa78c7d0ed8b6f71b5ca423bfc7e801a",
	"elasticity/rank0/ILUT":          "0278b1b94cff8d9b62b985b71ee6a964752e252c8daa0a70ed4c13ddad9fd6bd",
	"elasticity/rank0/ILUTP(0.1)":    "4fa0e8f4eceefbd248f7876849846511bb264830a2233c422156d66e9f1a3565",
	"elasticity/rank0/ILUTP(1)":      "4fa0e8f4eceefbd248f7876849846511bb264830a2233c422156d66e9f1a3565",
	"elasticity/rank1/ILUT":          "3d3e4d9252b1bf367b9e3a0fdca6d5f4cbe873b643e5cd5999427961dd082a75",
	"elasticity/rank1/ILUTP(0.1)":    "f5525defda4eded5970070387a041411c9fc7feedb13b41713df0b2d6a7871f5",
	"elasticity/rank1/ILUTP(1)":      "f5525defda4eded5970070387a041411c9fc7feedb13b41713df0b2d6a7871f5",
	"elasticity/rank2/ILUT":          "08f3dd4dd237ed31ade99bd43e6976cf846330a0c30a23640f98eff23157e332",
	"elasticity/rank2/ILUTP(0.1)":    "f866eb20a685c9089af14954e88bf2ed468bfb4c6e5cfe579e2b9ddb2d96e184",
	"elasticity/rank2/ILUTP(1)":      "f866eb20a685c9089af14954e88bf2ed468bfb4c6e5cfe579e2b9ddb2d96e184",
	"elasticity/rank3/ILUT":          "e45c53a7e300b206591e27c7260f441d47b78731b4ffcd308fc9c34cbe812014",
	"elasticity/rank3/ILUTP(0.1)":    "c4faf33f5c94ef78a341d953c2bd722c065012539f1394f11206a7e396313852",
	"elasticity/rank3/ILUTP(1)":      "c4faf33f5c94ef78a341d953c2bd722c065012539f1394f11206a7e396313852",
	"laplacian2d/n=4900/ILUT":        "6cf6b46765b6dcbf2885de5317e7793d012021e7f2ba97218c773b97b4b3854f",
	"laplacian2d/n=4900/ILUTP(0.1)":  "060948dc6ce63462c47a57ca486164a4fe3f385e55596c4ce8db1a3e6a3d1ff9",
	"laplacian2d/n=4900/ILUTP(1)":    "060948dc6ce63462c47a57ca486164a4fe3f385e55596c4ce8db1a3e6a3d1ff9",
	"laplacian2d/rank0/ILUT":         "fc031a75fe89db56c416e25adfe91c3e266b2a55887f80bb9b63d529098d0742",
	"laplacian2d/rank0/ILUTP(0.1)":   "2cd8264c1c85ed95a3a7fe8a2e2f6782412e3bec63e8ae89e21e615c0c0c2cfc",
	"laplacian2d/rank0/ILUTP(1)":     "2cd8264c1c85ed95a3a7fe8a2e2f6782412e3bec63e8ae89e21e615c0c0c2cfc",
	"laplacian2d/rank1/ILUT":         "b5a356095433f9b4541c4c72661691fa88a0d84c300836d2fb901db21f21d1ef",
	"laplacian2d/rank1/ILUTP(0.1)":   "07d051db3d10042eeaca5110002794b7818abc7f17a7ef66ca5bc6d63595f092",
	"laplacian2d/rank1/ILUTP(1)":     "07d051db3d10042eeaca5110002794b7818abc7f17a7ef66ca5bc6d63595f092",
	"laplacian2d/rank2/ILUT":         "b5a356095433f9b4541c4c72661691fa88a0d84c300836d2fb901db21f21d1ef",
	"laplacian2d/rank2/ILUTP(0.1)":   "07d051db3d10042eeaca5110002794b7818abc7f17a7ef66ca5bc6d63595f092",
	"laplacian2d/rank2/ILUTP(1)":     "07d051db3d10042eeaca5110002794b7818abc7f17a7ef66ca5bc6d63595f092",
	"laplacian2d/rank3/ILUT":         "65e1d85b4914716a2e3eef470c872a73b9b75c04c5ebdc8bbc98131c0e451865",
	"laplacian2d/rank3/ILUTP(0.1)":   "f4a3598d574660ea273d0b0248c3b0087dcf1c1bb2c96dcb488c53aa98f86c92",
	"laplacian2d/rank3/ILUTP(1)":     "f4a3598d574660ea273d0b0248c3b0087dcf1c1bb2c96dcb488c53aa98f86c92",
	"n=0/ILUT":                       "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
	"n=0/ILUTP(0.1)":                 "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
	"n=0/ILUTP(1)":                   "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
	"n=1/ILUT":                       "a8594ad268ece3d43ee1bd29770ab01aac1d47ed0efcfc7080ff33394fd8ac18",
	"n=1/ILUTP(0.1)":                 "c1399096dbe6cc7c130798e811ffd03985cfcabd242d4e36d6572139c3e7df55",
	"n=1/ILUTP(1)":                   "c1399096dbe6cc7c130798e811ffd03985cfcabd242d4e36d6572139c3e7df55",
	"n=63/ILUT":                      "645be1279cf8cd98e980fee71f2afac506d41b7474237d4330d5c14c93b9fee3",
	"n=63/ILUTP(0.1)":                "e96138e01ccc845d8be055b87c60aaef98bc44a6dc861a429954e36ac9144901",
	"n=63/ILUTP(1)":                  "e96138e01ccc845d8be055b87c60aaef98bc44a6dc861a429954e36ac9144901",
	"n=64/ILUT":                      "c16b34834c2c259fbfa25aac470a8cb838aea2c16ccee2fa570be8620e241b70",
	"n=64/ILUTP(0.1)":                "d6ffd1379ca0324bc19f8d3532100f3e0dddc23a325c37d896c6394726b3a298",
	"n=64/ILUTP(1)":                  "d6ffd1379ca0324bc19f8d3532100f3e0dddc23a325c37d896c6394726b3a298",
	"n=65/ILUT":                      "96fa6024536e7022433ac6a0653a60d522129f7fab189f8e6e765e107825f52e",
	"n=65/ILUTP(0.1)":                "7718ee1cf3229f9da2a7f4b8774ae232eb04295dc8a125ebe3ad3f4863d4f56e",
	"n=65/ILUTP(1)":                  "7718ee1cf3229f9da2a7f4b8774ae232eb04295dc8a125ebe3ad3f4863d4f56e",
	"random/n=500/ILUT":              "530b2e7d8c518929b4e4d2e90cae9b9a598d183e2b2ca94290518c312b909e6b",
	"random/n=500/ILUTP(0.1)":        "bf26b1ea456e2f124db10932dd2167dffa008994817837f35957bf6989b1eb2b",
	"random/n=500/ILUTP(1)":          "bf26b1ea456e2f124db10932dd2167dffa008994817837f35957bf6989b1eb2b",
	"shifted/n=200/ILUT":             "64693cb72c4474908120fe1eaa3151a72b42b85edba5a91e5852f8e3f550ee0f",
	"shifted/n=200/ILUTP(0.1)":       "a29f245a0191c8116f9eada0c599267d2f34850eee0b53588689f713aeb09e9f",
	"shifted/n=200/ILUTP(1)":         "ff7f00f6b50ac1ab533acf5b37184fe1c4a1f03cef540bbb8e78910903f9e2c7",
	"weak-diagonal/n=300/ILUT":       "12ec8b8c3fbd6bd4995c86dd19779f8bdae852f38b52906968593876c334f5ad",
	"weak-diagonal/n=300/ILUTP(0.1)": "2c3293d9a329917ab135399de5b3163265a136928964ef57f30a329b675a2364",
	"weak-diagonal/n=300/ILUTP(1)":   "61d790b579ad77fa095c78996e96040f166655262b4b2e8fadc229758e9f3fef",
}

// TestILUTFactorDigests pins every bit of the ILUT and ILUTP factors to
// the parent commit's.
func TestILUTFactorDigests(t *testing.T) {
	got := map[string]string{}
	swaps := 0
	for _, m := range digestMatrices() {
		f, err := ILUT(m.a, DefaultILUT())
		if err != nil {
			t.Fatalf("%s: ILUT: %v", m.name, err)
		}
		got[m.name+"/ILUT"] = factorDigest(f, nil, 0)
		for _, tol := range []float64{1, 0.1} {
			p, err := ILUTP(m.a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: tol})
			if err != nil {
				t.Fatalf("%s: ILUTP(%g): %v", m.name, tol, err)
			}
			got[fmt.Sprintf("%s/ILUTP(%g)", m.name, tol)] = factorDigest(p.LU, p.Perm, p.Swaps)
			swaps += p.Swaps
		}
	}
	if swaps < 100 {
		t.Errorf("ILUTP swapped %d columns over all inputs: the pivoting path is barely digested", swaps)
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

// factorBoth are ILUT and ILUTP behind one signature: the factor and a
// digest of all it holds, recomputed on every call.
var factorBoth = map[string]func(a *sparse.CSR) (*LU, func() string, error){
	"ILUT": func(a *sparse.CSR) (*LU, func() string, error) {
		f, err := ILUT(a, DefaultILUT())
		return f, func() string { return factorDigest(f, nil, 0) }, err
	},
	"ILUTP": func(a *sparse.CSR) (*LU, func() string, error) {
		p, err := ILUTP(a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 0.5})
		if err != nil {
			return nil, nil, err
		}
		return p.LU, func() string { return factorDigest(p.LU, p.Perm, p.Swaps) }, nil
	},
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
	for kind, factor := range factorBoth {
		fa, digestA, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		before := digestA()
		fb, _, err := factor(b)
		if err != nil {
			t.Fatal(err)
		}
		fa2, digestA2, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		if digestA() != before {
			t.Errorf("%s: the factor of A changed while later factors were built", kind)
		}
		if digestA2() != before {
			t.Errorf("%s: A factors to other bits out of recycled buffers", kind)
		}
		for _, f := range []*LU{fa, fb, fa2} {
			views := viewsOf(f)
			for k, v := range views {
				if cap(v.ptr) != len(v.ptr) || v.colSpare != 0 {
					t.Errorf("%s: kept index slices of triangle %d have %d and %d spare entries", kind, k, cap(v.ptr)-len(v.ptr), v.colSpare)
				}
			}
			for k, s := range [][]float64{views[0].val, views[1].val, f.piv} {
				if cap(s) != len(s) {
					t.Errorf("%s: kept value slice %d has cap %d, len %d", kind, k, cap(s), len(s))
				}
			}
		}
		for _, f := range []*LU{fb, fa2} {
			spoil(f)
		}
		if digestA() != before {
			t.Errorf("%s: writing into a later factor reached A's", kind)
		}
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
	measure := func(factor func(*sparse.CSR) (*LU, func() string, error)) (allocated, kept int) {
		allocated = math.MaxInt
		for rep := 0; rep < 17; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f, _, err := factor(a)
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
	for kind, factor := range factorBoth {
		allocated, kept := measure(factor)
		// Scratch: the scatter workspace and its mask, two column lists,
		// the ordered set, ILUTP's two permutations and the closures of its
		// two sort.Slice calls per row — 70 (ILUT) to 200 (ILUTP) bytes per
		// row.
		limit := kept + 256*n + 1<<14
		if allocated > limit {
			t.Errorf("%s: second factorization allocated %d bytes, want at most the kept %d + O(n) = %d (the two build buffers are %d)",
				kind, allocated, kept, limit, bound)
		}
		if limit >= kept+bound {
			t.Fatalf("%s: a limit of %d does not tell pooled from unpooled build buffers (%d more)", kind, limit, bound)
		}
	}
}
