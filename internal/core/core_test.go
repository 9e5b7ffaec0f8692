package core_test

import (
	"errors"
	"testing"
	"time"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/precond"
)

func solveCase(t *testing.T, name string, size, p int, kind precond.Kind, mutate func(*core.Config)) *core.Result {
	t.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(size)
	cfg := core.DefaultConfig(p, kind)
	cfg.KeepX = true
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatalf("%s/%s P=%d: %v", name, kind, p, err)
	}
	return res
}

func TestSolveAllCasesAllPreconditioners(t *testing.T) {
	sizes := map[string]int{
		"tc1-poisson2d":    17,
		"tc2-poisson3d":    7,
		"tc3-unstructured": 20,
		"tc4-heat3d":       7,
		"tc5-convdiff":     17,
		"tc6-elasticity":   9,
		"tc7-jump":         17,
	}
	kinds := []precond.Kind{precond.KindBlock1, precond.KindBlock2, precond.KindSchur1, precond.KindSchur2}
	for _, c := range cases.All() {
		for _, k := range kinds {
			res := solveCase(t, c.Name, sizes[c.Name], 4, k, nil)
			if !res.Converged {
				t.Errorf("%s/%s: did not converge in %d iterations", c.Name, k, res.Iterations)
				continue
			}
			if res.TrueRelRes > 1e-5 {
				t.Errorf("%s/%s: true residual %v (preconditioner corrupted the solve)", c.Name, k, res.TrueRelRes)
			}
			if res.SolveTime <= 0 || res.SetupTime < 0 {
				t.Errorf("%s/%s: nonpositive modeled times: setup %v solve %v", c.Name, k, res.SetupTime, res.SolveTime)
			}
			t.Logf("%-18s %-8s P=4: %3d itr, %.4fs model", c.Name, k, res.Iterations, res.SolveTime)
		}
	}
}

func TestSolutionAgreesWithSequentialReference(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(17)
	res := solveCase(t, "tc1-poisson2d", 17, 4, precond.KindSchur1, nil)
	d, err := core.Verify(prob, res.X)
	if err != nil {
		t.Fatal(err)
	}
	if d > 2e-4 {
		t.Fatalf("distributed solution differs from reference by %v", d)
	}
}

func TestSimplePartitionScheme(t *testing.T) {
	res := solveCase(t, "tc2-poisson3d", 7, 8, precond.KindBlock2, func(cfg *core.Config) {
		cfg.Scheme = core.PartitionSimple
	})
	if !res.Converged || res.TrueRelRes > 1e-5 {
		t.Fatalf("simple partition solve failed: %+v", res)
	}
}

func TestMachineModelsProduceDifferentTimes(t *testing.T) {
	mk := func(m *dist.Machine) *core.Result {
		return solveCase(t, "tc1-poisson2d", 17, 4, precond.KindBlock1, func(cfg *core.Config) {
			cfg.Machine = m
		})
	}
	cl := mk(dist.LinuxCluster())
	or := mk(dist.Origin3800())
	if cl.SolveTime == or.SolveTime {
		t.Fatal("machine models indistinguishable")
	}
	// Same matrix + same partition seed would give same iterations; with
	// the machine-specific seeds, counts may differ (as in the paper) but
	// both must converge.
	if !cl.Converged || !or.Converged {
		t.Fatal("convergence failure")
	}
}

func TestPartitionSeedChangesIterations(t *testing.T) {
	// The paper §4.3 observes that different RNGs in the partitioner gave
	// different iteration counts on the two machines. Reproduce: two
	// seeds, same everything else.
	a := solveCase(t, "tc1-poisson2d", 21, 6, precond.KindBlock1, func(cfg *core.Config) { cfg.PartSeed = 11 })
	b := solveCase(t, "tc1-poisson2d", 21, 6, precond.KindBlock1, func(cfg *core.Config) { cfg.PartSeed = 12 })
	if a.Iterations == b.Iterations {
		t.Logf("seeds gave equal counts (%d) — possible but unusual", a.Iterations)
	}
	if !a.Converged || !b.Converged {
		t.Fatal("convergence failure")
	}
}

func TestSchwarzThroughCore(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	const m = 25
	prob := c.Build(m)
	cfg := core.DefaultConfig(4, precond.KindNone)
	sw := precond.DefaultSchwarz(m, 2, 2, true)
	cfg.Schwarz = &sw
	cfg.KeepX = true
	// Schwarz requires the matching box partition.
	cfg.Scheme = core.PartitionSimple
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.TrueRelRes > 1e-5 {
		t.Fatalf("Schwarz solve failed: %+v", res)
	}
}

func TestSolveValidation(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(9)
	if _, err := core.Solve(prob, core.Config{P: 0}); err == nil {
		t.Fatal("P=0 accepted")
	}
}

// TestEmptyRanksConverge: more ranks than unknowns is a legal request
// (partition.General leaves the ranks past the vertex count empty, and a
// gateway spec bounds procs by nothing), so a rank that owns no unknown
// must neither die in a zero-length kernel nor skip a collective the
// others wait in. 16 unknowns on 20 ranks, under a watchdog so that a
// deadlock is an error and not a hung test.
func TestEmptyRanksConverge(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(4)
	for _, kind := range []precond.Kind{precond.KindBlock1, precond.KindBlock2,
		precond.KindSchur1, precond.KindSchur2} {
		cfg := core.DefaultConfig(20, kind)
		cfg.Watchdog = 3 * time.Second
		res, err := core.Solve(prob, cfg)
		var rp *dist.RankPanicError
		var dl *dist.DeadlockError
		switch {
		case errors.As(err, &rp):
			t.Errorf("%s: a rank panicked: %v", kind, rp)
		case errors.As(err, &dl):
			t.Errorf("%s: deadlock: %v", kind, dl)
		case err != nil:
			t.Errorf("%s: %v", kind, err)
		case !res.Converged:
			t.Errorf("%s: not converged after %d iterations: %v", kind, res.Iterations, res.Err)
		}
	}
}

// TestUnknownPrecondIsRejected: a Config.Precond that spells no
// preconditioner fails both entry points with the typed error, before
// any set-up, instead of solving unpreconditioned under that name; another
// casing of a real name is that preconditioner.
func TestUnknownPrecondIsRejected(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(9)
	cfg := core.DefaultConfig(2, "Schur 3")
	_, solveErr := core.Solve(prob, cfg)
	_, sessionErr := core.NewSession(prob, cfg)
	for name, err := range map[string]error{"Solve": solveErr, "NewSession": sessionErr} {
		var unknown *precond.UnknownKindError
		if !errors.As(err, &unknown) || unknown.Name != "Schur 3" {
			t.Errorf("%s with Precond \"Schur 3\": error %v, want a *precond.UnknownKindError", name, err)
		}
	}

	want := solveCase(t, "tc1-poisson2d", 17, 2, precond.KindSchur2, nil)
	got := solveCase(t, "tc1-poisson2d", 17, 2, "schur 2", nil)
	if got.Iterations != want.Iterations || got.SolveTime != want.SolveTime {
		t.Errorf("Precond \"schur 2\": %d iterations in %v s, Schur 2 takes %d in %v s",
			got.Iterations, got.SolveTime, want.Iterations, want.SolveTime)
	}
}

// TestOverlapIgnoredWhereItDoesNotApply: a kind that ignores OverlapLevels
// (precond.Kind.HasBlockVariants) solves as if it were zero, to the bit.
func TestOverlapIgnoredWhereItDoesNotApply(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 9)
	solve := func(overlap int) *core.Result {
		cfg := core.DefaultConfig(2, precond.KindBlockIC)
		cfg.OverlapLevels = overlap
		res, err := core.Solve(prob, cfg)
		if err != nil {
			t.Fatalf("Block IC, OverlapLevels %d: %v", overlap, err)
		}
		return res
	}
	got, want := solve(1), solve(0)
	if got.Iterations != want.Iterations || got.Residual != want.Residual ||
		got.SetupTime != want.SetupTime || got.SolveTime != want.SolveTime {
		t.Errorf("Block IC with OverlapLevels 1: %d iterations, residual %v, times %v + %v; without: %d, %v, %v + %v",
			got.Iterations, got.Residual, got.SetupTime, got.SolveTime,
			want.Iterations, want.Residual, want.SetupTime, want.SolveTime)
	}
	for r := range got.PerRank {
		if got.PerRank[r].Clock != want.PerRank[r].Clock {
			t.Errorf("rank %d clock %v with OverlapLevels 1, %v without", r, got.PerRank[r].Clock, want.PerRank[r].Clock)
		}
	}
}

func TestUnpreconditionedBaseline(t *testing.T) {
	res := solveCase(t, "tc1-poisson2d", 17, 2, precond.KindNone, func(cfg *core.Config) {
		cfg.Solver.MaxIters = 2000
	})
	if !res.Converged {
		t.Fatalf("unpreconditioned baseline failed: %+v", res)
	}
	pre := solveCase(t, "tc1-poisson2d", 17, 2, precond.KindSchur1, nil)
	if pre.Iterations >= res.Iterations {
		t.Fatalf("Schur 1 (%d) no better than unpreconditioned (%d)", pre.Iterations, res.Iterations)
	}
}

func TestOverlapLevelsThroughCore(t *testing.T) {
	plain := solveCase(t, "tc1-poisson2d", 21, 4, precond.KindBlock2, nil)
	over := solveCase(t, "tc1-poisson2d", 21, 4, precond.KindBlock2, func(cfg *core.Config) {
		cfg.OverlapLevels = 2
	})
	if !plain.Converged || !over.Converged {
		t.Fatal("convergence failure")
	}
	if over.TrueRelRes > 1e-5 {
		t.Fatalf("overlap solve residual %v", over.TrueRelRes)
	}
	if over.Iterations >= plain.Iterations {
		t.Fatalf("overlap (%d) not better than plain Block 2 (%d)", over.Iterations, plain.Iterations)
	}
}

// A session's solve is the one-shot Solve's arithmetic without the set-up
// charge: iterations, residual history and solution agree bit for bit for
// every family of preconditioner a session holds — per-rank, Schwarz with a
// coarse grid, overlapping blocks.
func TestSessionReuseMatchesOneShot(t *testing.T) {
	const m = 17
	schwarz := precond.DefaultSchwarz(m, 2, 2, true)
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"Block 1", func(cfg *core.Config) { cfg.Precond = precond.KindBlock1 }},
		{"Block 2", func(cfg *core.Config) { cfg.Precond = precond.KindBlock2 }},
		{"Schur 1", func(cfg *core.Config) { cfg.Precond = precond.KindSchur1 }},
		{"Schur 2", func(cfg *core.Config) { cfg.Precond = precond.KindSchur2 }},
		{"AddSchwarz+CGC", func(cfg *core.Config) {
			cfg.Precond, cfg.Schwarz, cfg.Scheme = precond.KindNone, &schwarz, core.PartitionSimple
		}},
		{"Block 2 (+1 overlap)", func(cfg *core.Config) { cfg.Precond, cfg.OverlapLevels = precond.KindBlock2, 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := cases.ByName("tc1-poisson2d")
			prob := c.Build(m)
			cfg := core.DefaultConfig(4, "")
			cfg.KeepX = true
			cfg.Solver.RecordHistory = true
			tc.mutate(&cfg)

			sess, err := core.NewSession(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			one, err := core.Solve(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := sess.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Iterations != one.Iterations {
				t.Fatalf("session iterations %d != one-shot %d", r1.Iterations, one.Iterations)
			}
			if !bitEqual(r1.History, one.History) || len(r1.History) == 0 {
				t.Fatalf("session history %v != one-shot %v", r1.History, one.History)
			}
			if !bitEqual(r1.X, one.X) || len(r1.X) != prob.A.Rows {
				t.Fatal("session solution differs from one-shot")
			}
			// Second solve with a different RHS must also work and stay exact.
			b2 := make([]float64, prob.A.Rows)
			for i := range b2 {
				b2[i] = float64(i%7) - 3
			}
			r2, err := sess.Solve(b2)
			if err != nil {
				t.Fatal(err)
			}
			if !r2.Converged || r2.TrueRelRes > 1e-5 {
				t.Fatalf("session re-solve failed: %+v", r2)
			}
			if sess.P() != 4 || sess.SetupTime() < 0 || len(sess.Systems()) != 4 {
				t.Fatal("session accessors broken")
			}
		})
	}
}

func TestSessionValidation(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(9)
	if _, err := core.NewSession(prob, core.Config{P: 0}); err == nil {
		t.Fatal("P=0 accepted")
	}
	sess, err := core.NewSession(prob, core.DefaultConfig(2, precond.KindBlock1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(make([]float64, 3)); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestRCMOrderedBlockThroughCore(t *testing.T) {
	plain := solveCase(t, "tc3-unstructured", 20, 4, precond.KindBlock2, func(cfg *core.Config) {
		cfg.ILUT.LFil = 4 // small fill: ordering quality matters
	})
	rcm := solveCase(t, "tc3-unstructured", 20, 4, precond.KindBlock2, func(cfg *core.Config) {
		cfg.ILUT.LFil = 4
		cfg.RCM = true
	})
	if !plain.Converged || !rcm.Converged {
		t.Fatal("convergence failure")
	}
	if rcm.TrueRelRes > 1e-5 {
		t.Fatalf("RCM solve residual %v", rcm.TrueRelRes)
	}
	t.Logf("plain=%d rcm=%d iterations", plain.Iterations, rcm.Iterations)
	if rcm.Iterations > plain.Iterations+3 {
		t.Fatalf("RCM ordering clearly worsened convergence: %d vs %d", rcm.Iterations, plain.Iterations)
	}
}

func TestMeshlessProblemSolves(t *testing.T) {
	// Strip the mesh from a case: the pattern-graph partitioner must take
	// over and everything still works.
	c, _ := cases.ByName("tc1-poisson2d")
	prob := c.Build(17)
	prob.Mesh = nil
	cfg := core.DefaultConfig(4, precond.KindSchur1)
	cfg.KeepX = true
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.TrueRelRes > 1e-5 {
		t.Fatalf("mesh-less solve failed: %+v", res)
	}
}

func TestSessionWithSchwarzAndOverlap(t *testing.T) {
	c, _ := cases.ByName("tc1-poisson2d")
	const m = 25
	prob := c.Build(m)

	// Schwarz session.
	cfg := core.DefaultConfig(4, precond.KindNone)
	sw := precond.DefaultSchwarz(m, 2, 2, true)
	cfg.Schwarz = &sw
	cfg.KeepX = true
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.TrueRelRes > 1e-5 {
		t.Fatalf("Schwarz session failed: %+v", res)
	}

	// Overlap-block session.
	cfg2 := core.DefaultConfig(4, precond.KindBlock2)
	cfg2.OverlapLevels = 1
	cfg2.KeepX = true
	sess2, err := core.NewSession(prob, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sess2.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.TrueRelRes > 1e-5 {
		t.Fatalf("overlap session failed: %+v", res2)
	}
}

func TestBlock2PivotThroughCore(t *testing.T) {
	// On the convection-dominated case the pivoting variant must converge
	// and match Block 2's quality.
	res := solveCase(t, "tc5-convdiff", 17, 4, precond.KindBlock2P, nil)
	if !res.Converged || res.TrueRelRes > 1e-5 {
		t.Fatalf("Block 2P failed: %+v", res)
	}
	b2 := solveCase(t, "tc5-convdiff", 17, 4, precond.KindBlock2, nil)
	if res.Iterations > 2*b2.Iterations+5 {
		t.Fatalf("Block 2P (%d) much worse than Block 2 (%d)", res.Iterations, b2.Iterations)
	}
}

func TestDistributedCGWithBlockIC(t *testing.T) {
	// The SPD path: distributed PCG with an SPD block preconditioner on
	// Test Case 1 must converge to the same solution as FGMRES.
	cg := solveCase(t, "tc1-poisson2d", 17, 4, precond.KindBlockIC, func(cfg *core.Config) {
		cfg.UseCG = true
		cfg.Solver.Flexible = false
	})
	if !cg.Converged || cg.TrueRelRes > 1e-5 {
		t.Fatalf("CG+BlockIC failed: %+v", cg)
	}
	fg := solveCase(t, "tc1-poisson2d", 17, 4, precond.KindBlockIC, nil)
	if !fg.Converged {
		t.Fatalf("FGMRES+BlockIC failed: %+v", fg)
	}
	// For SPD systems CG should be at least competitive with FGMRES(20).
	if cg.Iterations > 2*fg.Iterations {
		t.Fatalf("CG (%d) much slower than FGMRES (%d)", cg.Iterations, fg.Iterations)
	}
	t.Logf("CG=%d FGMRES=%d iterations", cg.Iterations, fg.Iterations)
}

func TestJumpCaseSchurBeatsBlocks(t *testing.T) {
	// The extension case: a 1000:1 coefficient jump. Schur 1 should hold
	// up much better than Block 1 — the same robustness axis the paper's
	// elasticity case probes.
	s1 := solveCase(t, "tc7-jump", 21, 4, precond.KindSchur1, nil)
	b1 := solveCase(t, "tc7-jump", 21, 4, precond.KindBlock1, nil)
	if !s1.Converged {
		t.Fatalf("Schur 1 failed on jump case: %+v", s1)
	}
	if s1.TrueRelRes > 1e-5 {
		t.Fatalf("Schur 1 residual %v", s1.TrueRelRes)
	}
	if b1.Converged && b1.Iterations <= s1.Iterations {
		t.Fatalf("expected Schur 1 (%d) to beat Block 1 (%d) on the jump case", s1.Iterations, b1.Iterations)
	}
	t.Logf("jump case: Schur1=%d, Block1=%d (converged=%v)", s1.Iterations, b1.Iterations, b1.Converged)
}

func TestJumpSchur1InnerItersRescue(t *testing.T) {
	// EXPERIMENTS.md EXT section: Schur 1's default inner B-solve (3 local
	// GMRES iterations) cannot resolve the 1000:1 coefficient jump at
	// larger sizes, while a stronger inner solve restores convergence.
	c, _ := cases.ByName("tc7-jump")
	prob := c.Build(65)
	run := func(inner int) *core.Result {
		cfg := core.DefaultConfig(4, precond.KindSchur1)
		cfg.Schur1.InnerIters = inner
		cfg.Solver.MaxIters = 300
		res, err := core.Solve(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	weak := run(3)
	strong := run(8)
	if !strong.Converged {
		t.Fatalf("InnerIters=8 did not converge: %+v", strong)
	}
	if weak.Converged && weak.Iterations < strong.Iterations {
		t.Fatalf("expected the weak inner solve to struggle: weak %d vs strong %d",
			weak.Iterations, strong.Iterations)
	}
}

func TestCommFractionGrowsWithP(t *testing.T) {
	// Fixed global size: the modeled communication share of the total
	// time must grow with P — the effect behind the paper's remark that
	// fixed problem sizes favor smaller P (§4.3).
	frac := func(p int) float64 {
		res := solveCase(t, "tc1-poisson2d", 33, p, precond.KindBlock2, nil)
		var comm, clock float64
		for _, s := range res.PerRank {
			comm += s.CommTime
			clock += s.Clock
		}
		return comm / clock
	}
	f2, f16 := frac(2), frac(16)
	t.Logf("comm fraction: P=2 %.3f, P=16 %.3f", f2, f16)
	if f16 <= f2 {
		t.Fatalf("comm fraction did not grow with P: %.3f -> %.3f", f2, f16)
	}
}

func TestPerRankStatsConsistent(t *testing.T) {
	res := solveCase(t, "tc2-poisson3d", 7, 4, precond.KindSchur1, nil)
	for _, s := range res.PerRank {
		if s.Clock < s.ComputeTime {
			t.Fatalf("rank %d: clock %v < compute %v", s.Rank, s.Clock, s.ComputeTime)
		}
		if s.CommTime < 0 || s.Flops <= 0 {
			t.Fatalf("rank %d: bogus stats %+v", s.Rank, s)
		}
		if s.MsgsSent == 0 {
			t.Fatalf("rank %d sent no messages in a Schur solve", s.Rank)
		}
	}
}
