package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"parapre/internal/ckpt"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/krylov"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

// Session amortizes the expensive setup — partitioning, distribution and
// preconditioner construction — over many solves with the same matrix but
// different right-hand sides, the pattern of implicit time stepping
// (Test Case 4 runs one step; a real simulation runs thousands). All
// preconditioners in this repository depend only on the matrix, so they
// are built once — concurrently across ranks on the shared-memory worker
// pool — and reused by every Solve.
type Session struct {
	prob *Problem
	cfg  Config
	lay  *layout // the Problem's, shared: read-only
	pcs  []precond.Preconditioner
	// modeled one-time setup cost (max over ranks)
	setupTime float64

	// mu implements the concurrent-Solve policy. Most configurations can
	// overlap solves freely (read side): the matrix and distribution are
	// immutable after setup, the purely local preconditioners write
	// nothing of their own in Apply — each rank leases its scratch for the
	// solve from a pool its preconditioner owns (dist.Comm.Lease) — and
	// the per-rank halo buffers are atomically leased. The write side — full
	// serialization — is taken when solves share mutable state: a
	// preconditioner that communicates inside Apply (it records the first
	// exchange failure per preconditioner, not per solve, and a per-Apply
	// lock across two in-flight worlds would deadlock: each world would
	// hold some ranks' locks while its inner iteration waits for ranks
	// whose locks the other world holds), the session-default checkpoint
	// destination (one file), or the
	// session-inherited observability collector (per-rank recorders are
	// single-writer by contract).
	mu sync.RWMutex
	// serialOnly marks the communicating preconditioners, the
	// precond.CommErrRecorders (Schur 1/2, Schwarz, overlapping blocks):
	// their solves can never overlap.
	serialOnly bool

	// wsPool recycles the per-rank solver workspaces across (possibly
	// concurrent) solves: each rank leases one for its solve
	// (dist.Comm.Lease), so ranks never share one and repeated solves stop
	// allocating.
	wsPool sync.Pool
}

// SolveOptions carries the per-solve knobs of Session.SolveWith — the
// pieces a long-running service varies per request while the session
// (matrix, partition, preconditioners) stays shared. The zero value
// reproduces Session.Solve exactly.
type SolveOptions struct {
	// Ctx cancels this solve only (see Config.Ctx for semantics); it
	// overrides the session config's context.
	Ctx context.Context
	// Collector records this solve's spans and counters. Distinct
	// concurrent solves must pass distinct collectors (a collector's
	// per-rank recorders are single-writer); overriding the session
	// collector is what makes concurrent traced solves possible at all.
	Collector *obs.Collector
	// Progress streams the per-iteration residuals of this solve (the
	// callback runs on rank goroutines — every rank reports each
	// iteration — and must be cheap and thread-safe).
	Progress func(iter int, resid float64)
	// CheckpointEvery/CheckpointPath/CheckpointSink/Restore override the
	// session config's checkpoint wiring for this solve. Distinct
	// concurrent solves must use distinct destinations.
	CheckpointEvery int
	CheckpointPath  string
	CheckpointSink  ckpt.Sink
	Restore         *ckpt.Checkpoint
}

// NewSession partitions and distributes the problem and constructs the
// per-rank preconditioners. The problem's B may be nil when every solve
// passes its own right-hand side.
func NewSession(p *Problem, cfg Config) (*Session, error) {
	if err := resolveConfig(&cfg); err != nil {
		return nil, err
	}
	lay, reused, err := p.layout(cfg)
	if err != nil {
		return nil, err
	}
	recordLayout(cfg.Collector, reused)
	s := &Session{prob: p, cfg: cfg, lay: lay}

	if s.pcs, err = buildPrecs(p.A, lay, cfg); err != nil {
		return nil, err
	}
	_, s.serialOnly = s.pcs[0].(precond.CommErrRecorder)
	// Model the one-time setup: every rank factors concurrently, so the
	// cost is the maximum per-rank estimate.
	for _, pc := range s.pcs {
		t := setupFlops(pc) / s.cfg.Machine.FlopRate * s.cfg.Machine.Load
		if t > s.setupTime {
			s.setupTime = t
		}
	}
	s.wsPool.New = func() any { return krylov.NewWorkspace() }
	return s, nil
}

// P returns the processor count of the session.
func (s *Session) P() int { return s.cfg.P }

// SetupTime returns the modeled one-time setup cost in seconds.
func (s *Session) SetupTime() float64 { return s.setupTime }

// Systems exposes the per-rank subdomain systems (diagnostics). They are
// shared with every other session and solve on the same Problem, P and
// partition: read-only. Their B is unset; a solve scatters its own.
func (s *Session) Systems() []*dsys.System { return s.lay.systems }

// Solve runs the distributed preconditioned FGMRES for the global
// right-hand side b (nil reuses the problem's). The preconditioners and
// the distribution are reused; only the solve is charged to the virtual
// clocks. Equivalent to SolveWith(b, SolveOptions{}).
func (s *Session) Solve(b []float64) (*Result, error) {
	return s.SolveWith(b, SolveOptions{})
}

// SolveWith runs one solve under the session with per-solve overrides —
// cancellation context, collector, progress stream, checkpoint wiring.
// Solves are safe to call concurrently: overlapping solves share the
// immutable setup and proceed in parallel where the configuration allows
// it, and serialize (correctly, not racily) where it does not — see the
// Session mutex policy.
func (s *Session) SolveWith(b []float64, opts SolveOptions) (*Result, error) {
	return s.run(b, opts, time.Time{})
}

// run is SolveWith's body. A non-zero start makes it Solve's one-shot run,
// timed from start: every rank first charges its preconditioner's set-up to
// its virtual clock and synchronizes (see worldRun.rank), SetupTime is the
// clock there and SolveTime what the ranks' clocks add after it.
func (s *Session) run(b []float64, opts SolveOptions, start time.Time) (*Result, error) {
	cfg := s.cfg
	if opts.Ctx != nil {
		cfg.Ctx = opts.Ctx
	}
	if opts.Collector != nil {
		cfg.Collector = opts.Collector
	}
	if opts.Progress != nil {
		cfg.Solver.Progress = opts.Progress
	}
	if opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opts.CheckpointEvery
	}
	if opts.CheckpointPath != "" {
		cfg.CheckpointPath = opts.CheckpointPath
		cfg.CheckpointSink = nil
	}
	if opts.CheckpointSink != nil {
		cfg.CheckpointSink = opts.CheckpointSink
	}
	if opts.Restore != nil {
		cfg.Restore = opts.Restore
	}

	// Exclusive when solves share mutable state at session scope: a
	// communicating preconditioner, the session's own checkpoint
	// destination (not overridden per solve), or the session-inherited
	// collector. Per-solve collectors and checkpoint destinations are the
	// caller's to keep distinct.
	exclusive := s.serialOnly ||
		(cfg.CheckpointEvery > 0 && opts.CheckpointPath == "" && opts.CheckpointSink == nil &&
			(cfg.CheckpointPath != "" || cfg.CheckpointSink != nil)) ||
		(cfg.Collector != nil && opts.Collector == nil)
	if exclusive {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}

	if b == nil {
		b = s.prob.B
	}
	if len(b) != s.prob.A.Rows {
		return nil, fmt.Errorf("core: rhs length %d, want %d", len(b), s.prob.A.Rows)
	}
	if err := validateRestore(cfg); err != nil {
		return nil, err
	}
	oneShot := !start.IsZero()
	if !oneShot {
		start = time.Now()
	}
	wr := newWorldRun(cfg, s.lay.systems, b, checkpointSink(cfg), oneShot)
	stats, runErr := runWorld(cfg, func(c *dist.Comm) {
		wr.rank(c, s.pcs[c.Rank()], c.Lease(&s.wsPool).(*krylov.Workspace))
	})
	if runErr != nil {
		// Deadlock, crash or rank panic: the typed runtime error is the
		// result (per-rank stats up to the failure are in it already).
		return nil, runErr
	}

	res := &Result{PerRank: stats, SetupTime: s.setupTime}
	sortPerRank(res.PerRank)
	breakdown := aggregateResult(res, wr.results, wr.logs)
	solveClock, cerr := dist.MaxClockErr(stats)
	if cerr != nil {
		return nil, fmt.Errorf("core: %w", cerr)
	}
	if oneShot {
		res.SetupTime = slices.Max(wr.setup)
		solveClock -= res.SetupTime
	}
	res.SolveTime = solveClock
	res.Wall = time.Since(start).Seconds()
	recordSolveCounters(cfg, res, breakdown)
	if cfg.KeepX {
		res.X = dsys.Gather(s.lay.systems, wr.xl)
		res.TrueRelRes = trueRelRes(s.prob.A, b, res.X)
	}
	return res, nil
}
