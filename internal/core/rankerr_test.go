package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/paranoid"
	"parapre/internal/precond"
)

// skipUnderParanoid skips the NaN-poisoning scenarios: under the
// paranoid tag the injected NaN trips an invariant check inside the
// Arnoldi loop (the fail-fast behavior that tag exists for) before the
// graceful breakdown/aggregation path these tests exercise can run.
func skipUnderParanoid(t *testing.T) {
	t.Helper()
	if paranoid.Enabled {
		t.Skip("paranoid build panics on the injected NaN before aggregation runs")
	}
}

// The ISSUE's regression scenario: a fault plan aimed at rank 2 poisons
// one of its neighbor exchanges with NaN. Every rank's replicated
// recurrence then breaks down, but only rank 2 holds the ExchangeError
// naming the failed link — before the aggregation fix, Result.Err was
// rank 0's bare BreakdownError and the root cause vanished.
func TestFaultOnRank2SurfacesItsExchangeError(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindBlock2)
	cfg.Faults = &dist.FaultPlan{Seed: 3, CorruptProb: 0.3, TargetRecvRanks: []int{2}}
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !errors.Is(res.Err, krylov.ErrBreakdown) {
		t.Fatalf("Err = %v, want a breakdown", res.Err)
	}
	var ex *dsys.ExchangeError
	if !errors.As(res.Err, &ex) {
		t.Fatalf("Err = %v: rank 2's exchange root cause was dropped", res.Err)
	}
	if ex.Rank != 2 {
		t.Errorf("exchange error on rank %d, plan targeted rank 2", ex.Rank)
	}
	var rse *core.RankSolveError
	if !errors.As(res.Err, &rse) || rse.Rank != 2 {
		t.Errorf("Err = %v, want the cause attributed to rank 2", res.Err)
	}
}

// Session.Solve shares the aggregation path; the same targeted plan must
// surface the same attributed cause.
func TestSessionFaultOnRank2SurfacesItsExchangeError(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindBlock2)
	cfg.Faults = &dist.FaultPlan{Seed: 3, CorruptProb: 0.3, TargetRecvRanks: []int{2}}
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ex *dsys.ExchangeError
	if !errors.As(res.Err, &ex) || ex.Rank != 2 {
		t.Fatalf("Err = %v, want rank 2's exchange cause", res.Err)
	}
}

// Targeting every rank must reproduce the untargeted plan bit for bit:
// the targeting mask changes which injections apply, never which are
// drawn, so the fault stream stays aligned.
func TestTargetAllRanksMatchesUntargeted(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 33)
	run := func(targets []int) *core.Result {
		cfg := core.DefaultConfig(4, precond.KindBlock2)
		cfg.Solver.RecordHistory = true
		cfg.Faults = &dist.FaultPlan{Seed: 1, DelayProb: 0.25, DelayMax: 2e-3,
			CorruptProb: 0.02, TargetRecvRanks: targets}
		cfg.Resilient = true
		res, err := core.Solve(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nil)
	all := run([]int{0, 1, 2, 3})
	if ref.Iterations != all.Iterations || ref.SolveTime != all.SolveTime {
		t.Fatalf("targeted-all diverged from untargeted: %d/%v vs %d/%v",
			ref.Iterations, ref.SolveTime, all.Iterations, all.SolveTime)
	}
	if len(ref.History) != len(all.History) {
		t.Fatalf("history length %d vs %d", len(ref.History), len(all.History))
	}
	for i := range ref.History {
		if ref.History[i] != all.History[i] {
			t.Fatalf("history[%d]: %v vs %v", i, ref.History[i], all.History[i])
		}
	}
}

// A corrupted exchange during a Schur 1 solve can hit either the
// system-level exchange of the outer matvec or the preconditioner's
// interface exchange inside the inner Schur solve. Both must surface as
// typed, rank-attributed causes in the aggregated result.
func TestSchurPrecondFaultSurfacesTypedExchangeError(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindSchur1)
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

// A Schur 1 breakdown under persistent corruption must walk the resilient
// escalation ladder: retry the Schur 1 stage, then fall back to the
// structurally different Block 2 (precond.Kind.Fallback routes the Schur
// variants there). The recovery log names both stages.
func TestResilientFallbackNamesBothStages(t *testing.T) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindSchur1)
	cfg.Faults = &dist.FaultPlan{Seed: 11, CorruptProb: 0.3, TargetRecvRanks: []int{2}}
	cfg.Resilient = true
	res, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || len(res.Recovery.Steps) < 2 {
		t.Fatalf("recovery log %+v, want a Schur 1 attempt plus an escalation", res.Recovery)
	}
	stages := map[string]bool{}
	for _, st := range res.Recovery.Steps {
		stages[st.Stage] = true
	}
	for _, want := range []precond.Kind{precond.KindSchur1, precond.KindBlock2} {
		if !stages[string(want)] {
			t.Errorf("ladder stages %v missing %s", stages, want)
		}
	}
}

// returnsWithin runs fn and fails the test if it has not returned after
// d: a regression here hangs rather than fails.
func returnsWithin(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s had not returned after %v", what, d)
	}
}

// A rank whose preconditioner cannot be built fails the solve from every
// entry point instead of running on without it: with the stored values of
// rank 2's first row (in global numbering) zeroed, its factorization meets
// a zero pivot. Solve and NewSession return that typed error instead of
// the other ranks waiting for rank 2 in a collective.
func TestSetupFailureOnOneRankIsAnError(t *testing.T) {
	const p, bad, deadline = 4, 2, 10 * time.Second
	for _, kind := range []precond.Kind{precond.KindSchur1, precond.KindSchur2, precond.KindBlock2} {
		t.Run(string(kind), func(t *testing.T) {
			prob := buildProblem(t, "tc1-poisson2d", 17)
			cfg := core.DefaultConfig(p, kind)
			part, err := core.Partition(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, vals := prob.A.Row(slices.Index(part, bad))
			clear(vals)
			prob.A.InvalidateBlocked()

			wantZeroPivot := func(what string, err error) {
				t.Helper()
				var zp *ilu.ZeroPivotError
				if !errors.As(err, &zp) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d setup", bad)) {
					t.Errorf("%s: error %v, want rank %d's *ilu.ZeroPivotError", what, err, bad)
				}
			}
			returnsWithin(t, deadline, "Solve", func() {
				_, err := core.Solve(prob, cfg)
				wantZeroPivot("Solve", err)
			})
			returnsWithin(t, deadline, "NewSession", func() {
				_, err := core.NewSession(prob, cfg)
				wantZeroPivot("NewSession", err)
			})
		})
	}
}

// A panic on a rank goroutine of a plain solve — no fault plan, watchdog or
// collector — comes back as a typed error naming the rank, from Solve and
// from a session alike, instead of taking the process down.
func TestRankPanicIsATypedError(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 17)
	cfg := core.DefaultConfig(4, precond.KindBlock2)
	// One rank panics per solve; its peers are left waiting in the next
	// reduction and must be unwound, not hung.
	var calls atomic.Int32
	cfg.Solver.Progress = func(int, float64) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
	}
	_, solveErr := core.Solve(prob, cfg)
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	_, sessionErr := sess.Solve(nil)
	for name, err := range map[string]error{"Solve": solveErr, "Session.Solve": sessionErr} {
		var rp *dist.RankPanicError
		if !errors.As(err, &rp) {
			t.Errorf("%s: error %v, want a *dist.RankPanicError", name, err)
			continue
		}
		if rp.Rank < 0 || rp.Rank >= cfg.P || rp.Value != "boom" {
			t.Errorf("%s: panic %v on rank %d, want \"boom\" on one of %d ranks", name, rp.Value, rp.Rank, cfg.P)
		}
	}
}
