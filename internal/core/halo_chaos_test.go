package core_test

import (
	"errors"
	"testing"
	"time"

	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/krylov"
	"parapre/internal/precond"
)

// haloChaos drives a solve whose preconditioner exchanges halos inside
// Apply through the drop and crash plans. Every run must end converged or
// in a typed error — a deadlock the watchdog named, the planned crash, a
// communication error, a breakdown carrying the failed exchange — and never
// in a rank that panicked out of a halo receive.
func haloChaos(t *testing.T, mutate func(*core.Config)) {
	skipUnderParanoid(t)
	prob := buildProblem(t, "tc1-poisson2d", 17)
	for name, plan := range map[string]*dist.FaultPlan{
		"drop":  {Seed: 2, DropProb: 0.02},
		"crash": {Seed: 2, CrashRank: 1, CrashAfterOps: 80},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig(4, precond.KindBlock2)
			mutate(&cfg)
			cfg.Faults = plan
			cfg.Watchdog = 300 * time.Millisecond
			res, err := core.Solve(prob, cfg)
			var rp *dist.RankPanicError
			if errors.As(err, &rp) {
				t.Fatalf("a rank panicked: %v", err)
			}
			if err != nil {
				var de *dist.DeadlockError
				var ce *dist.CrashError
				var pc *dist.PeerCrashedError
				var tm *dist.TagMismatchError
				if !errors.As(err, &de) && !errors.As(err, &ce) && !errors.As(err, &pc) && !errors.As(err, &tm) {
					t.Fatalf("untyped failure: %v", err)
				}
				return
			}
			var ex *dsys.ExchangeError
			if !res.Converged && !errors.Is(res.Err, krylov.ErrBreakdown) && !errors.As(res.Err, &ex) {
				t.Fatalf("neither converged nor a typed error: %d iterations, Err %v", res.Iterations, res.Err)
			}
		})
	}
}

func TestSchwarzHaloChaosTypedError(t *testing.T) {
	sw := precond.DefaultSchwarz(17, 2, 2, true)
	haloChaos(t, func(cfg *core.Config) { cfg.Schwarz = &sw })
}

func TestOverlapHaloChaosTypedError(t *testing.T) {
	haloChaos(t, func(cfg *core.Config) { cfg.OverlapLevels = 2 })
}
