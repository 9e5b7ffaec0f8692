package cases

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"parapre/internal/core"
	"parapre/internal/precond"
)

// setupGolden pins core.Solve end to end across the set-up kernels
// (ilu.ILUT's selection, arms.AssembleSchur, the block extractions) and
// across the solvers: the iteration count, the modeled solve and set-up
// times, every rank's flop and message counts, and digests of the solution
// and of the residual history. The set-up bits, the iteration counts and
// the six Block rows are as produced by commit a94ab32 — the last one with
// the sort-based selection and the coordinate-buffer Schur assembly; a
// set-up change that alters one stored factor bit moves at least the flop
// counts of some cell. The digests were recorded at commit 6ceac6a, the
// last one whose inner solves applied their operator to the zero guess and
// formed a closing residual; the commit that stopped both re-recorded
// solveBits, flopBits and msgs of the six Schur rows and nothing else, so
// the digests are what says that no iterate moved with the work. The last
// three rows (Block IC under CG, both RCM blocks) were recorded at commit
// 239d905, before ILUT and its since removed column-pivoting variant
// shared one elimination and the block-Jacobi kinds became one type. The
// tc4-heat3d row was recorded at commit 625944b, before Test Case 4's
// operator M + Δt·K and the heat example's became one fem function.
var setupGolden = []struct {
	name       string
	size       int
	kind       precond.Kind
	iterations int
	converged  bool
	solveBits  uint64
	setupBits  uint64
	flopBits   [4]uint64
	msgs       [4]int
	xDigest    uint64
	histDigest uint64
}{
	{"tc1-poisson2d", 97, "Schur 1", 12, true, 0x3fd3010656f8d235, 0x3f70a427921540da,
		[4]uint64{0x4177ea4950000000, 0x41755a6860000000, 0x4177fa1b70000000, 0x4176022b30000000}, [4]int{74, 222, 148, 148},
		0x68c4d984438fb859, 0x408575ff983ebe5f},
	{"tc1-poisson2d", 97, "Schur 2", 12, true, 0x3fc9a836a3b966e2, 0x3f8505e63aa3b192,
		[4]uint64{0x41662bbfc0000000, 0x41675b1620000000, 0x416c2f4360000000, 0x4167db4760000000}, [4]int{74, 222, 148, 148},
		0x7391bf969cf063fb, 0xb73238c47bb9dd8a},
	{"tc1-poisson2d", 97, "Block 1", 165, true, 0x3fe4acd882544a01, 0x3f4f93433e4331ae,
		[4]uint64{0x417bb4ddc0000000, 0x417bbe9480000000, 0x417bbee260000000, 0x417bac3800000000}, [4]int{175, 525, 350, 350},
		0xf82efc3a5c8b251f, 0x27aeb24da65b66d1},
	{"tc1-poisson2d", 97, "Block 2", 75, true, 0x3fd704cb1d10fa3e, 0x3f6f11078f407a44,
		[4]uint64{0x4174a82540000000, 0x4174dfa280000000, 0x4174e9b280000000, 0x4173db5be0000000}, [4]int{80, 240, 160, 160},
		0x54fb72b9c76345da, 0xbe0800fee3d646ee},
	{"tc5-convdiff", 97, "Schur 1", 5, true, 0x3fb4e26d4801f72c, 0x3f6320a3e47636be,
		[4]uint64{0x4154cb5a40000000, 0x415291a380000000, 0x415208ce80000000, 0x4151066440000000}, [4]int{32, 96, 64, 64},
		0x80d33d8a0afa9e27, 0x72f11e191ffc4619},
	{"tc5-convdiff", 97, "Schur 2", 5, true, 0x3fb30fb8fe7219a3, 0x3f83e6cff4e70edf,
		[4]uint64{0x41536dfd00000000, 0x41543f1c00000000, 0x4155c32400000000, 0x4153918a40000000}, [4]int{32, 96, 64, 64},
		0xa82088c57d2a2876, 0x1428a79619194b75},
	{"tc5-convdiff", 97, "Block 1", 22, true, 0x3fb5b880ba7a8f99, 0x3f4f93433e4331ae,
		[4]uint64{0x414dc64200000000, 0x414dd13200000000, 0x414dd1af00000000, 0x414dbbc180000000}, [4]int{25, 75, 50, 50},
		0x5d52f3592d7ade85, 0xd67dd883eb7c50e2},
	{"tc5-convdiff", 97, "Block 2", 19, true, 0x3fb614f31de102ff, 0x3f67a2e9a473e82f,
		[4]uint64{0x4150848e00000000, 0x4153812400000000, 0x4150412780000000, 0x415262e080000000}, [4]int{21, 63, 42, 42},
		0x2c97bddde08d8b0e, 0xe5d0e42d37b6b6e9},
	{"tc6-elasticity", 41, "Schur 1", 35, true, 0x3fe21487e57573c8, 0x3f604a14f70809ba,
		[4]uint64{0x417c97f180000000, 0x417a980980000000, 0x417c6d0820000000, 0x417e3c9500000000}, [4]int{426, 639, 426, 639},
		0x6621488a9073e7a1, 0x9598ba33436fcae5},
	{"tc6-elasticity", 41, "Schur 2", 33, true, 0x3fe06aaf3ed5b70e, 0x3f751df7f0f6302c,
		[4]uint64{0x4173dda200000000, 0x417a497240000000, 0x4178ec7620000000, 0x41716259a0000000}, [4]int{402, 603, 402, 603},
		0x4810cd8040764ce8, 0x6f41ce748f4f0c7a},
	{"tc6-elasticity", 41, "Block 1", 999, true, 0x4009a9ee698de980, 0x3f47804f45b870f5,
		[4]uint64{0x419482bd00000000, 0x4194806a40000000, 0x41943cfa00000000, 0x41946eb1b0000000}, [4]int{2100, 3150, 2100, 3150},
		0x2827f2fa31631cea, 0x003df79f8d4cc46a},
	{"tc6-elasticity", 41, "Block 2", 529, true, 0x3ffdb2843401bf98, 0x3f5ae3100530c169,
		[4]uint64{0x418f05c540000000, 0x418f26ffc0000000, 0x418e8d7ac0000000, 0x418ef3f380000000}, [4]int{1114, 1671, 1114, 1671},
		0x84222a55703816d1, 0x7c0610aed4b78e54},
	{"tc1-poisson2d", 97, "AddSchwarz+CGC", 29, true, 0x3fcd5874fdca8c8c, 0x3fc208dfea27983c,
		[4]uint64{0x417cf6d480000000, 0x417cc74e80000000, 0x417cc74e80000000, 0x417c98c260000000}, [4]int{270, 238, 238, 270},
		0x553b34cfc711547e, 0xd2d21068555a7a1d},
	{"tc1-poisson2d", 97, "Block 2 (+1 overlap)", 38, true, 0x3fcaa6ac6e4f303b, 0x3f7069f5671fc9ca,
		[4]uint64{0x4165abf980000000, 0x4166551980000000, 0x4166532340000000, 0x4165099e20000000}, [4]int{79, 237, 158, 158},
		0xcb043f29421cb83e, 0x42cdc4709a884d2f},
	{"tc1-poisson2d", 97, "Block IC (CG)", 103, true, 0x3fc900f21f894ee6, 0x3f4455f85a19510a,
		[4]uint64{0x4163532100000000, 0x41635e7bc0000000, 0x41635f0240000000, 0x416346e360000000}, [4]int{104, 312, 208, 208},
		0xac2b1e1f2fd96e17, 0xd5b853eeb30b2c52},
	{"tc1-poisson2d", 97, "Block 1 (RCM)", 91, true, 0x3fd6a00685ab2605, 0x3f4f93433e4331ae,
		[4]uint64{0x416efac880000000, 0x416f058400000000, 0x416f05e240000000, 0x416ef12280000000}, [4]int{97, 291, 194, 194},
		0xb3750b4f6c8cdd6f, 0xa58f6aeaa89322ee},
	{"tc1-poisson2d", 97, "Block 2 (RCM)", 73, true, 0x3fd5b3f23c8f9aad, 0x3f6b7c7820a30db7,
		[4]uint64{0x4173553b00000000, 0x41732c0100000000, 0x417275d740000000, 0x41713399e0000000}, [4]int{78, 234, 156, 156},
		0x033dd3534235b5e7, 0x5d1151d33bd3d457},
	{"tc4-heat3d", 17, "Schur 1", 7, true, 0x3fc11d0abd484a6f, 0x3f650fe1f552fdd4,
		[4]uint64{0x415fd29980000000, 0x4160073fe0000000, 0x415ecb9580000000, 0x415a699c80000000}, [4]int{132, 132, 132, 132},
		0x100a8f5fcff13016, 0xfc1f2c0f6f044ffa},
}

// TestSolveMatchesParentCommitBits runs one subtest per row, named
// case@size/kind, so that a check can ask for rows by name.
func TestSolveMatchesParentCommitBits(t *testing.T) {
	problems := map[string]*core.Problem{}
	for _, g := range setupGolden {
		t.Run(fmt.Sprintf("%s@%d/%s", g.name, g.size, g.kind), func(t *testing.T) {
			p := problems[g.name]
			if p == nil {
				c, err := ByName(g.name)
				if err != nil {
					t.Fatal(err)
				}
				p = c.Build(g.size)
				problems[g.name] = p
			}
			cfg := core.DefaultConfig(4, g.kind)
			switch g.kind { // options beyond a kind's default, spelled as Name prints them (CG in parentheses)
			case "AddSchwarz+CGC":
				sw := precond.DefaultSchwarz(g.size, 2, 2, true)
				cfg.Schwarz = &sw
			case "Block 2 (+1 overlap)":
				cfg.Precond, cfg.OverlapLevels = precond.KindBlock2, 1
			case "Block IC (CG)":
				cfg.Precond, cfg.UseCG = precond.KindBlockIC, true
			case "Block 1 (RCM)":
				cfg.Precond, cfg.RCM = precond.KindBlock1, true
			case "Block 2 (RCM)":
				cfg.Precond, cfg.RCM = precond.KindBlock2, true
			}
			cfg.KeepX = true
			cfg.Solver.RecordHistory = true
			res, err := core.Solve(p, cfg)
			if err != nil {
				t.Fatalf("%s@%d %s: %v", g.name, g.size, g.kind, err)
			}
			if res.Iterations != g.iterations || res.Converged != g.converged {
				t.Errorf("%s@%d %s: %d iterations, converged %v; recorded %d, %v",
					g.name, g.size, g.kind, res.Iterations, res.Converged, g.iterations, g.converged)
			}
			if got := math.Float64bits(res.SolveTime); got != g.solveBits {
				t.Errorf("%s@%d %s: SolveTime bits %#x, recorded %#x", g.name, g.size, g.kind, got, g.solveBits)
			}
			if got := math.Float64bits(res.SetupTime); got != g.setupBits {
				t.Errorf("%s@%d %s: SetupTime bits %#x, recorded %#x", g.name, g.size, g.kind, got, g.setupBits)
			}
			if got := bitsDigest(res.X); got != g.xDigest {
				t.Errorf("%s@%d %s: solution digest %#x, recorded %#x", g.name, g.size, g.kind, got, g.xDigest)
			}
			if got := bitsDigest(res.History); got != g.histDigest {
				t.Errorf("%s@%d %s: residual history digest %#x, recorded %#x", g.name, g.size, g.kind, got, g.histDigest)
			}
			if len(res.PerRank) != 4 {
				t.Fatalf("%s@%d %s: %d ranks", g.name, g.size, g.kind, len(res.PerRank))
			}
			for r, st := range res.PerRank {
				if got := math.Float64bits(st.Flops); got != g.flopBits[r] || st.MsgsSent != g.msgs[r] {
					t.Errorf("%s@%d %s rank %d: flop bits %#x, %d messages; recorded %#x, %d",
						g.name, g.size, g.kind, r, got, st.MsgsSent, g.flopBits[r], g.msgs[r])
				}
			}
		})
	}
}

// bitsDigest is the leading eight bytes of the SHA-256 of v's IEEE bit
// patterns: two vectors with one differing bit have different digests.
func bitsDigest(v []float64) uint64 {
	h := sha256.New()
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return binary.BigEndian.Uint64(h.Sum(nil))
}
