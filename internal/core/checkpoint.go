package core

import (
	"fmt"

	"parapre/internal/ckpt"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/krylov"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

// worldRun is the per-rank solve body shared by the in-process world (a
// session's solves, Solve's one-shot among them: P goroutine ranks over the
// channel transport) and the multi-process worker (SolveRank: one OS process
// per rank over the socket transport). Keeping the paths on one body is what
// makes the socket world reproduce the in-process arithmetic: same setup
// charge, same barrier, same solver options, same checkpoint hook placement.
type worldRun struct {
	cfg     Config
	systems []*dsys.System
	bl      [][]float64 // the right-hand side, scattered over systems
	sink    ckpt.Sink
	charge  bool // charge the preconditioner's set-up before solving

	results []krylov.Result
	logs    []*krylov.RecoveryLog
	setup   []float64 // each rank's clock once set-up is charged
	xl      [][]float64
}

// newWorldRun scatters the right-hand side b and allocates the outputs.
func newWorldRun(cfg Config, systems []*dsys.System, b []float64, sink ckpt.Sink, charge bool) *worldRun {
	p := cfg.P
	return &worldRun{cfg: cfg, systems: systems, bl: dsys.Scatter(systems, b), sink: sink, charge: charge,
		results: make([]krylov.Result, p), logs: make([]*krylov.RecoveryLog, p),
		setup: make([]float64, p), xl: make([][]float64, p)}
}

// rank is the rank body: it runs the configured solver with pc already
// built, with checkpoint/restore wiring. With charge it first charges pc's
// set-up and synchronizes, as all processors finish set-up before iterating.
// work is the rank's workspace leased by a session; nil lets the solver
// allocate.
func (wr *worldRun) rank(c *dist.Comm, pc precond.Preconditioner, work *krylov.Workspace) {
	cfg, r := wr.cfg, c.Rank()
	if wr.charge {
		sp := c.BeginSpan(obs.KindPrecondSetup, precondLabel(cfg))
		c.Compute(setupFlops(pc))
		c.EndSpan(sp)
		c.Barrier()
		wr.setup[r] = c.Stats().Clock
	}
	s, b := wr.systems[r], wr.bl[r]
	sopt := rankSolverOptions(cfg, c, wr.sink, cfg.Restore)
	if work != nil {
		sopt.Work = work
	}
	x := make([]float64, s.NLoc())
	var prec krylov.Prec
	if cfg.Precond != precond.KindNone || cfg.Schwarz != nil {
		prec = wrapApply(c, precondLabel(cfg), pc)
	}
	switch {
	case cfg.UseCG:
		wr.results[r] = krylov.DistributedCG(c, s, prec, b, x, sopt)
	case cfg.Resilient:
		wr.results[r], wr.logs[r] = krylov.ResilientSolve(c, s, resilientLadder(cfg, c, s, prec), b, x, sopt)
	default:
		wr.results[r] = krylov.Distributed(c, s, prec, b, x, sopt)
	}
	joinPrecondCommErr(pc, &wr.results[r])
	wr.xl[r] = x
}

// checkpointSink resolves the configured checkpoint destination: an
// explicit sink wins, else a file writer on CheckpointPath, else nil
// (checkpointing off).
func checkpointSink(cfg Config) ckpt.Sink {
	if cfg.CheckpointEvery <= 0 {
		return nil
	}
	if cfg.CheckpointSink != nil {
		return cfg.CheckpointSink
	}
	if cfg.CheckpointPath != "" {
		return ckpt.NewFileWriter(cfg.CheckpointPath, cfg.P)
	}
	return nil
}

// rankSolverOptions copies the configured solver options for one rank and
// wires the checkpoint hook and the restore state into the copy (the
// shared Config value must stay untouched — rank bodies run concurrently).
//
// On restore, the rank's virtual clock, fault-RNG cursor and
// observability counters are rewound to the snapshot before the solver
// resumes, so the continued run is bit-identical — clocks included — to
// the uninterrupted one. The rewind happens after the fresh setup phase
// charged the clock, deliberately discarding the respawned process's
// duplicated setup cost from the modeled time.
func rankSolverOptions(cfg Config, c *dist.Comm, sink ckpt.Sink, restore *ckpt.Checkpoint) krylov.Options {
	sopt := cfg.Solver
	if sopt.Work != nil && cfg.P > 1 {
		// A caller-supplied workspace in Config.Solver would be copied to
		// every one of the P rank goroutines and shared — a data race. Drop
		// it; each rank allocates (or Session leases) its own.
		sopt.Work = nil
	}
	if cfg.Ctx != nil {
		if done := cfg.Ctx.Done(); done != nil {
			// Every rank polls and votes every iteration regardless of what
			// it observed locally — the vote is a collective and must appear
			// in the same position of every rank's op sequence. The OR of
			// the votes makes the stop decision identical everywhere.
			sopt.Stop = func() bool {
				v := false
				select {
				case <-done:
					v = true
				default:
				}
				return c.VoteStop(v)
			}
		}
	}
	if sink != nil && cfg.CheckpointEvery > 0 {
		sopt.CheckpointEvery = cfg.CheckpointEvery
		pid := precondLabel(cfg)
		p := cfg.P
		sopt.Checkpoint = func(st *krylov.State) {
			st.PrecondID = pid
			draws, ops := c.FaultCursor()
			// The replicated iteration count doubles as the sequence
			// number, so shard grouping is consistent across ranks and
			// across restarts. A sink failure must not kill the solve; the
			// previous durable checkpoint stays valid.
			_ = sink.PutShard(uint64(st.Iter), uint64(st.Iter), p, &ckpt.RankState{
				Rank:       c.Rank(),
				Solver:     st,
				Stats:      c.Stats(),
				FaultDraws: draws,
				FaultOps:   uint64(ops),
				Counters:   c.ObsCounterSnapshot(),
			})
		}
	}
	if restore != nil {
		rs := &restore.Ranks[c.Rank()]
		sopt.Resume = rs.Solver
		c.FastForwardFaults(rs.FaultDraws, int(rs.FaultOps))
		c.ObsMergeCounters(rs.Counters)
		c.RestoreStats(rs.Stats)
	}
	return sopt
}

// validateRestore rejects a checkpoint that does not fit the config
// before any rank starts: wrong world size, missing solver state, or (on
// the non-resilient path, which has no ladder to re-match stages) a
// different preconditioner identity.
func validateRestore(cfg Config) error {
	ck := cfg.Restore
	if ck == nil {
		return nil
	}
	if ck.P() != cfg.P {
		return fmt.Errorf("core: checkpoint holds %d ranks, config wants P=%d", ck.P(), cfg.P)
	}
	want := precondLabel(cfg)
	for i := range ck.Ranks {
		s := ck.Ranks[i].Solver
		if s == nil {
			return fmt.Errorf("core: checkpoint rank %d carries no solver state", i)
		}
		if !cfg.Resilient && s.PrecondID != want {
			return &krylov.StateMismatchError{Field: "precond", Want: want, Got: s.PrecondID}
		}
	}
	return nil
}

// SolveRank runs exactly one rank of the distributed solve over the
// given transport — the worker side of a multi-process (socket) run. The
// worker re-derives the partition and subdomain systems deterministically
// from the same problem and config the supervisor used, so no matrix data
// crosses the wire; only solver traffic does.
//
// The additive-Schwarz and overlapping-block preconditioners are wired
// through shared memory across ranks and cannot run multi-process;
// requesting them returns an error. Fault plans and watchdogs are
// likewise in-process machinery (dist.RemoteWorld strips them): chaos for
// socket worlds is real — kill the process.
//
// The rank's krylov result and final virtual-time stats are returned
// even on error (stats cover work up to the failure point). When a rank's
// preconditioner fails to build, that rank returns the set-up error and
// every other rank an error saying set-up failed elsewhere.
func SolveRank(p *Problem, cfg Config, rank int, tr dist.Transport, sink ckpt.Sink) (krylov.Result, dist.Stats, error) {
	if cfg.P < 1 || rank < 0 || rank >= cfg.P {
		return krylov.Result{}, dist.Stats{}, fmt.Errorf("core: rank %d of P=%d", rank, cfg.P)
	}
	if err := resolveConfig(&cfg); err != nil {
		return krylov.Result{}, dist.Stats{}, err
	}
	if cfg.Schwarz != nil || cfg.OverlapLevels > 0 && cfg.Precond.HasBlockVariants() {
		return krylov.Result{}, dist.Stats{}, fmt.Errorf("core: overlapping/Schwarz preconditioners are shared-memory wired and cannot run multi-process")
	}
	if len(p.B) != p.A.Rows {
		return krylov.Result{}, dist.Stats{}, fmt.Errorf("core: rhs length %d, want %d", len(p.B), p.A.Rows)
	}
	// A context is per-process: if only this worker polled the stop vote
	// the worlds' op sequences would diverge. Cancellation of a socket
	// world is the supervisor's job (signal the processes).
	cfg.Ctx = nil
	if err := validateRestore(cfg); err != nil {
		return krylov.Result{}, dist.Stats{}, err
	}
	if sink == nil {
		sink = checkpointSink(cfg)
	}

	lay, _, err := p.layout(cfg)
	if err != nil {
		return krylov.Result{}, dist.Stats{}, err
	}
	pc, buildErr := buildRankPrecond(cfg, lay.systems[rank], cfg.Precond)
	wr := newWorldRun(cfg, lay.systems, p.B, sink, true)
	w := dist.RemoteWorld(cfg.P, cfg.Machine, tr, dist.WorldOptions{Collector: cfg.Collector})
	// A rank without its preconditioner cannot take part, and the others
	// would wait for it in their first collective: the ranks agree on a
	// failed build first, through the uncharged and untraced stop vote, so
	// that every process returns and no modeled bit moves.
	var failed bool
	st, err := dist.RunRank(w.Comm(rank), func(c *dist.Comm) {
		if failed = c.VoteStop(buildErr != nil); !failed {
			wr.rank(c, pc, nil)
		}
	})
	switch {
	case buildErr != nil:
		err = fmt.Errorf("core: rank %d setup: %w", rank, buildErr)
	case failed && err == nil:
		err = fmt.Errorf("core: rank %d: preconditioner set-up failed on another rank", rank)
	}
	return wr.results[rank], st, err
}
