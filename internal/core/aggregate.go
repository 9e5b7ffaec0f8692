package core

import (
	"errors"
	"fmt"

	"parapre/internal/dsys"
	"parapre/internal/krylov"
	"parapre/internal/precond"
)

// joinPrecondCommErr folds a communication failure the preconditioner
// recorded during its inner Schur solves into the rank's result: the
// poisoned inner solve broke the outer recurrence down, and the typed
// exchange error is the root cause the breakdown diagnostics must carry.
func joinPrecondCommErr(pc precond.Preconditioner, res *krylov.Result) {
	rec, ok := pc.(precond.CommErrRecorder)
	if !ok {
		return
	}
	if cerr := rec.TakeCommErr(); cerr != nil {
		res.Breakdown = true
		res.Err = errors.Join(res.Err, cerr)
	}
}

// RankSolveError attributes a per-rank solver error to the rank that
// produced it. The distributed recurrence is replicated, so most solver
// errors appear on every rank at once and Result.Err stays the plain
// rank-0 error; a RankSolveError appears exactly when rank 0 looked
// healthy while another rank failed — a communication fault on a specific
// link, or a breakdown reachable only on a rank with interface rows (an
// empty rank 0 never exchanges). It wraps the underlying error, so
// errors.Is/As look straight through it.
type RankSolveError struct {
	Rank int
	Err  error
}

func (e *RankSolveError) Error() string {
	return fmt.Sprintf("rank %d: %v", e.Rank, e.Err)
}

func (e *RankSolveError) Unwrap() error { return e.Err }

// aggregateResult folds the per-rank krylov results and recovery logs
// into res. The recurrence quantities (iterations, restarts, convergence,
// history) are replicated across ranks, so rank 0's copies are the
// world's; errors are not — an exchange failure is observed with its
// cause only by the rank whose Recv failed, every other rank just sees
// the poisoned recurrence break down. Surfacing only results[0].Err
// silently dropped those causes (the historical bug); instead the first
// non-nil per-rank error is surfaced, attributed with its rank when it
// is not rank 0's own. Recovery logs are merged the same way: rank 0's
// ladder is the base (the ladder walks in lockstep), and steps where
// rank 0 recorded no error inherit the first other rank's attributed
// one. The returned flag reports whether any rank saw a breakdown (for
// the observability counters).
func aggregateResult(res *Result, results []krylov.Result, logs []*krylov.RecoveryLog) (breakdown bool) {
	r0 := results[0]
	res.Iterations = r0.Iterations
	res.Restarts = r0.Restarts
	res.Converged = r0.Converged
	res.History = r0.History
	if r0.Initial > 0 {
		res.Residual = r0.Final / r0.Initial
	}
	res.ErrRank = -1
	for r := range results {
		if results[r].Breakdown {
			breakdown = true
		}
		if res.Err == nil && results[r].Err != nil {
			res.ErrRank = r
			if r == 0 {
				res.Err = results[r].Err
			} else {
				res.Err = &RankSolveError{Rank: r, Err: results[r].Err}
			}
		}
	}
	// A poisoned exchange breaks the replicated recurrence down on every
	// rank, but only the rank whose Recv failed carries the communication
	// root cause — surfacing rank 0's bare BreakdownError would hide it.
	// If the surfaced error lacks an exchange cause that another rank
	// recorded — in the system-level exchange or in a preconditioner's own —
	// join the first such cause, attributed to its rank.
	var ex *dsys.ExchangeError
	if res.Err != nil && !errors.As(res.Err, &ex) {
		for r := range results {
			if r != res.ErrRank && errors.As(results[r].Err, &ex) {
				res.Err = errors.Join(res.Err, &RankSolveError{Rank: r, Err: ex})
				break
			}
		}
	}
	res.Recovery = mergeRecoveryLogs(logs)
	return breakdown
}

// mergeRecoveryLogs folds the per-rank escalation-ladder logs into one.
// All ranks walk the ladder in lockstep (every decision flows through
// collectives), so the logs agree on the step sequence; only the per-step
// errors differ — the rank that observed the communication fault carries
// the cause, the others carry the generic breakdown. Rank 0's log is the
// base; a step where rank 0 recorded no error inherits the first other
// rank's error, attributed. Recovered is OR-ed for safety, although a
// replicated ladder cannot actually disagree on it.
func mergeRecoveryLogs(logs []*krylov.RecoveryLog) *krylov.RecoveryLog {
	if len(logs) == 0 || logs[0] == nil {
		return nil
	}
	base := logs[0]
	for r := 1; r < len(logs); r++ {
		l := logs[r]
		if l == nil {
			continue
		}
		if l.Recovered {
			base.Recovered = true
		}
		for i := range base.Steps {
			if i < len(l.Steps) && base.Steps[i].Err == nil && l.Steps[i].Err != nil {
				base.Steps[i].Err = &RankSolveError{Rank: r, Err: l.Steps[i].Err}
			}
		}
	}
	return base
}
