package cases

import (
	"math"
	"testing"

	"parapre/internal/core"
	"parapre/internal/precond"
)

// setupGolden pins core.Solve end to end across the set-up kernels
// (ilu.ILUT's selection, arms.AssembleSchur, the block extractions): the
// iteration count, the modeled solve and set-up times and every rank's
// flop and message counts, as produced by commit a94ab32 — the last one
// with the sort-based selection and the coordinate-buffer Schur assembly.
// A set-up change that alters one stored factor bit moves at least the
// flop counts of some cell.
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
}{
	{"tc1-poisson2d", 97, "Schur 1", 12, true, 0x3fd5ed946662436f, 0x3f70a427921540da,
		[4]uint64{0x417bda6d70000000, 0x4178909860000000, 0x417be86720000000, 0x4179819030000000}, [4]int{98, 294, 196, 196}},
	{"tc1-poisson2d", 97, "Schur 2", 12, true, 0x3fcd50e2ffcd640b, 0x3f8505e63aa3b192,
		[4]uint64{0x41687585c0000000, 0x4169dea820000000, 0x416f91cb60000000, 0x416a776f60000000}, [4]int{98, 294, 196, 196}},
	{"tc1-poisson2d", 97, "Block 1", 165, true, 0x3fe4acd882544a01, 0x3f4f93433e4331ae,
		[4]uint64{0x417bb4ddc0000000, 0x417bbe9480000000, 0x417bbee260000000, 0x417bac3800000000}, [4]int{175, 525, 350, 350}},
	{"tc1-poisson2d", 97, "Block 2", 75, true, 0x3fd704cb1d10fa3e, 0x3f6f11078f407a44,
		[4]uint64{0x4174a82540000000, 0x4174dfa280000000, 0x4174e9b280000000, 0x4173db5be0000000}, [4]int{80, 240, 160, 160}},
	{"tc5-convdiff", 97, "Schur 1", 5, true, 0x3fb836250e65ac87, 0x3f6320a3e47636be,
		[4]uint64{0x41582612c0000000, 0x4155b23e80000000, 0x41555d7900000000, 0x4154300040000000}, [4]int{42, 126, 84, 84}},
	{"tc5-convdiff", 97, "Schur 2", 5, true, 0x3fb5ca62faa11b58, 0x3f83e6cff4e70edf,
		[4]uint64{0x415522e200000000, 0x41561d0a00000000, 0x4157ee5600000000, 0x4155565540000000}, [4]int{42, 126, 84, 84}},
	{"tc5-convdiff", 97, "Block 1", 22, true, 0x3fb5b880ba7a8f99, 0x3f4f93433e4331ae,
		[4]uint64{0x414dc64200000000, 0x414dd13200000000, 0x414dd1af00000000, 0x414dbbc180000000}, [4]int{25, 75, 50, 50}},
	{"tc5-convdiff", 97, "Block 2", 19, true, 0x3fb614f31de102ff, 0x3f67a2e9a473e82f,
		[4]uint64{0x4150848e00000000, 0x4153812400000000, 0x4150412780000000, 0x415262e080000000}, [4]int{21, 63, 42, 42}},
	{"tc6-elasticity", 41, "Schur 1", 35, true, 0x3fe54880aed8b845, 0x3f604a14f70809ba,
		[4]uint64{0x4181527bc0000000, 0x417fb70340000000, 0x418118e9c0000000, 0x4182478970000000}, [4]int{566, 849, 566, 849}},
	{"tc6-elasticity", 41, "Schur 2", 33, true, 0x3fe2eb68317b0606, 0x3f751df7f0f6302c,
		[4]uint64{0x41769e4440000000, 0x417e3a96c0000000, 0x417c998260000000, 0x4173aedf20000000}, [4]int{534, 801, 534, 801}},
	{"tc6-elasticity", 41, "Block 1", 999, true, 0x4009a9ee698de980, 0x3f47804f45b870f5,
		[4]uint64{0x419482bd00000000, 0x4194806a40000000, 0x41943cfa00000000, 0x41946eb1b0000000}, [4]int{2100, 3150, 2100, 3150}},
	{"tc6-elasticity", 41, "Block 2", 529, true, 0x3ffdb2843401bf98, 0x3f5ae3100530c169,
		[4]uint64{0x418f05c540000000, 0x418f26ffc0000000, 0x418e8d7ac0000000, 0x418ef3f380000000}, [4]int{1114, 1671, 1114, 1671}},
}

func TestSolveMatchesParentCommitBits(t *testing.T) {
	problems := map[string]*core.Problem{}
	for _, g := range setupGolden {
		p := problems[g.name]
		if p == nil {
			c, err := ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			p = c.Build(g.size)
			problems[g.name] = p
		}
		res, err := core.Solve(p, core.DefaultConfig(4, g.kind))
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
		if len(res.PerRank) != 4 {
			t.Fatalf("%s@%d %s: %d ranks", g.name, g.size, g.kind, len(res.PerRank))
		}
		for r, st := range res.PerRank {
			if got := math.Float64bits(st.Flops); got != g.flopBits[r] || st.MsgsSent != g.msgs[r] {
				t.Errorf("%s@%d %s rank %d: flop bits %#x, %d messages; recorded %#x, %d",
					g.name, g.size, g.kind, r, got, st.MsgsSent, g.flopBits[r], g.msgs[r])
			}
		}
	}
}
