//go:build !paranoid

// The strict exchange tests inject NaN payloads, which the paranoid
// build's finite-value assertions would turn into panics before the
// typed-error paths under test can run.
package schur

import (
	"errors"
	"math"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/par"
)

// buildOps constructs one implicit interface operator per rank plus the
// per-rank interface vectors filled from a deterministic pattern.
func buildOps(t *testing.T, m, p int, seed int64) ([]*Iface, [][]float64) {
	t.Helper()
	systems, _, _ := buildSystems(t, m, p, seed)
	ops := make([]*Iface, p)
	xs := make([][]float64, p)
	for r, s := range systems {
		op, err := NewImplicit(s, exactBSolve(t, s))
		if err != nil {
			t.Fatalf("rank %d: NewImplicit: %v", r, err)
		}
		ops[r] = op
		x := make([]float64, op.N())
		for i := range x {
			x[i] = float64((r+1)*(i+3)%11) - 5
		}
		xs[r] = x
	}
	return ops, xs
}

// Steady-state Exchange and MatVec must allocate nothing on the schur
// side: the staging buffer is pooled, so the only allocations left per
// round are the transport's own payload copies
// (dist.Comm.Send copies every message — one object per message sent in
// the whole world, observed globally because allocation counters are
// process-wide).
func TestExchangeSteadyStateAllocs(t *testing.T) {
	const p = 2
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	ops, xs := buildOps(t, 9, p, 1)
	msgs := 0
	for _, op := range ops {
		for _, l := range op.halo.Links {
			if len(l.Send) > 0 {
				msgs++
			}
		}
	}
	if msgs == 0 {
		t.Fatal("test partition produced no neighbor traffic")
	}
	got := make([]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		r := c.Rank()
		y, w := make([]float64, ops[r].N()), ops[r].NewWork()
		// Both ranks run AllocsPerRun with the same run count, so the
		// collective exchanges stay paired across the whole measurement.
		got[r] = testing.AllocsPerRun(10, func() {
			if err := ops[r].MatVec(c, w, y, xs[r]); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		})
	})
	for r, g := range got {
		if g > float64(msgs) {
			t.Errorf("rank %d: %v allocations per MatVec round, want at most the %d transport copies",
				r, g, msgs)
		}
	}
}

// A NaN in a neighbor's interface contribution must surface as a typed
// *dsys.ExchangeError naming the link — not a panic, not a silent wrong
// answer — and MatVec must leave the output untouched.
func TestExchangeDetectsNonFinitePayload(t *testing.T) {
	const p = 2
	ops, xs := buildOps(t, 9, p, 1)
	for i := range xs[0] {
		xs[0][i] = math.NaN()
	}
	errs := make([]error, p)
	sentinels := make([][]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		r := c.Rank()
		y := make([]float64, ops[r].N())
		const sentinel = -12345
		for i := range y {
			y[i] = sentinel
		}
		errs[r] = ops[r].MatVec(c, ops[r].NewWork(), y, xs[r])
		sentinels[r] = y
	})
	if errs[0] != nil {
		t.Errorf("rank 0 received clean data but errored: %v", errs[0])
	}
	var xe *dsys.ExchangeError
	if !errors.As(errs[1], &xe) {
		t.Fatalf("rank 1 must flag the NaN payload, got %v", errs[1])
	}
	if xe.Rank != 1 || xe.Peer != 0 || xe.Tag != tagSchur || xe.Reason != "non-finite payload" {
		t.Errorf("fields wrong: %+v", xe)
	}
	for i, v := range sentinels[1] {
		if v != -12345 {
			t.Errorf("rank 1 output modified on error at %d: %g", i, v)
			break
		}
	}
}

// Detecting corruption must not leave undelivered messages behind: a
// clean exchange right after a poisoned one must pair correctly.
func TestExchangeDrainsAllNeighborsOnFailure(t *testing.T) {
	const p = 4
	ops, xs := buildOps(t, 9, p, 1)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		r := c.Rank()
		poisoned := make([]float64, ops[r].N())
		for i := range poisoned {
			poisoned[i] = math.NaN()
		}
		w := ops[r].NewWork()
		_ = ops[r].Exchange(c, w, poisoned) // every rank poisons round 1
		if err := ops[r].Exchange(c, w, xs[r]); err != nil {
			t.Errorf("rank %d: clean exchange after a poisoned one failed: %v", r, err)
		}
	})
}
