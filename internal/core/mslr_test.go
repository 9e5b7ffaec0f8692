package core_test

import (
	"errors"
	"testing"

	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/krylov"
	"parapre/internal/precond"
)

// MSLR must converge through the full distributed pipeline at every world
// size the CI race matrix exercises, and the solve must be a pure
// function of the configuration: same config, same iteration count and
// bit-identical modeled time on repeat.
func TestMSLRConvergesAcrossWorldSizes(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 25)
	for _, p := range []int{2, 4, 8} {
		run := func() *core.Result {
			cfg := core.DefaultConfig(p, precond.KindMSLR)
			res, err := core.Solve(prob, cfg)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			return res
		}
		res := run()
		if !res.Converged {
			t.Fatalf("P=%d: no convergence in %d iterations", p, res.Iterations)
		}
		if again := run(); again.Iterations != res.Iterations || again.SolveTime != res.SolveTime {
			t.Fatalf("P=%d: repeat run diverged: %d/%v vs %d/%v",
				p, res.Iterations, res.SolveTime, again.Iterations, again.SolveTime)
		}
	}
}

// The hierarchy knobs must flow through Config: a deeper hierarchy with
// corrections enabled still converges, and so does the degenerate
// zero-level, zero-rank configuration (plain ILUT everywhere).
func TestMSLRKnobsFlowThroughConfig(t *testing.T) {
	prob := buildProblem(t, "tc5-convdiff", 17)
	for _, tc := range []struct{ levels, rank int }{{0, 0}, {1, 4}, {4, 8}} {
		cfg := core.DefaultConfig(4, precond.KindMSLR)
		cfg.MSLR.Levels = tc.levels
		cfg.MSLR.Rank = tc.rank
		cfg.MSLR.MinBlock = 8
		res, err := core.Solve(prob, cfg)
		if err != nil {
			t.Fatalf("levels=%d rank=%d: %v", tc.levels, tc.rank, err)
		}
		if !res.Converged {
			t.Fatalf("levels=%d rank=%d: no convergence in %d iterations",
				tc.levels, tc.rank, res.Iterations)
		}
	}
}

// A corrupted exchange inside the MSLR interface solve must surface as a
// typed, rank-attributed cause through the aggregated result — the same
// contract the Schur preconditioners honor.
func TestMSLRFaultSurfacesTypedExchangeError(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindMSLR)
	cfg.Faults = &dist.FaultPlan{Seed: 5, CorruptProb: 0.3, TargetRecvRanks: []int{2}}
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("corrupted solve reported no error")
	}
	var ex *dsys.ExchangeError
	if !errors.As(res.Err, &ex) {
		t.Fatalf("Err = %v, want a typed exchange cause", res.Err)
	}
	if ex.Rank != 2 {
		t.Errorf("exchange error on rank %d (tag %d), plan targeted rank 2", ex.Rank, ex.Tag)
	}
	if !errors.Is(res.Err, krylov.ErrBreakdown) {
		t.Errorf("Err = %v, want the breakdown joined with its cause", res.Err)
	}
}

// An MSLR breakdown under persistent corruption must walk the resilient
// escalation ladder: retry the MSLR stage, then fall back to the
// structurally different Block 2 (fallbackKind routes MSLR there, like
// the other Schur variants).
func TestMSLRResilientFallback(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindMSLR)
	cfg.Faults = &dist.FaultPlan{Seed: 11, CorruptProb: 0.3, TargetRecvRanks: []int{2}}
	cfg.Resilient = true
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || len(res.Recovery.Steps) < 2 {
		t.Fatalf("recovery log %+v, want an MSLR attempt plus an escalation", res.Recovery)
	}
	stages := map[string]bool{}
	for _, st := range res.Recovery.Steps {
		stages[st.Stage] = true
	}
	if !stages[string(precond.KindMSLR)] {
		t.Errorf("ladder stages %v missing the MSLR attempt", stages)
	}
	if !stages[string(precond.KindBlock2)] {
		t.Errorf("ladder stages %v missing the Block 2 fallback", stages)
	}
}
