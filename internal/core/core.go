// Package core is the public façade of the library: it takes an assembled
// linear system (a Problem, typically produced by package cases), splits
// it across P simulated processors, runs the distributed FGMRES(20)
// solver with one of the paper's parallel algebraic preconditioners, and
// reports the two quantities the paper tabulates for every experiment:
// the iteration count and the (modeled) wall-clock time.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"parapre/internal/ckpt"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/obs"
	"parapre/internal/par"
	"parapre/internal/partition"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// Problem is an assembled distributed-ready linear system together with
// the grid metadata the partitioners need. Mesh may be nil for purely
// algebraic problems (e.g. matrices read from Matrix Market files); the
// general partitioner then works on the symmetrized sparsity graph of A,
// exactly as Metis does when fed a matrix instead of a mesh.
//
// A Problem remembers the partitions and distributed systems its solves and
// sessions were set up from and hands them to the next one that asks for the
// same P, scheme and seed: pass it by pointer; it pins one distribution per
// distinct P it was solved with. Treat Mesh as immutable. A may be edited in
// place between solves (InvalidateBlocked after editing Val): every set-up
// re-reads it. B is read at solve time only and may be swapped freely.
type Problem struct {
	Name string
	A    *sparse.CSR
	B    []float64
	Mesh *grid.Mesh // node graph source for the general partitioner (optional)
	// DofsPerNode maps matrix rows to mesh nodes (2 for elasticity, else
	// 1): row r belongs to node r/DofsPerNode.
	DofsPerNode int

	memo layoutMemo
}

// PatternGraph builds the symmetrized adjacency graph of the matrix
// sparsity pattern (self-loops removed) — the partitioning graph for
// mesh-less problems.
func PatternGraph(a *sparse.CSR) *partition.Graph {
	n := a.Rows
	edge := func(i, j int) bool { return j != i && j < n }
	// Every entry (i, j) is listed under i and under j; each vertex's list
	// is then sorted and, its duplicates dropped, moved down to close the
	// gaps the earlier vertices' duplicates left.
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if j := int(c); edge(i, j) {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	adj := make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if j := int(c); edge(i, j) {
				adj[next[i]], adj[next[j]] = j, i
				next[i]++
				next[j]++
			}
		}
	}
	w := 0
	for i := 0; i < n; i++ {
		list := adj[ptr[i]:ptr[i+1]]
		slices.Sort(list)
		ptr[i] = w
		w += copy(adj[w:], slices.Compact(list))
	}
	ptr[n] = w
	return &partition.Graph{Ptr: ptr, Adj: adj[:w]}
}

// PartitionScheme selects how the unknowns are divided among processors.
type PartitionScheme int

// Available partitioning schemes (§4.3 and §5.1 of the paper).
const (
	// PartitionGeneral is the Metis-style graph partitioner; the machine
	// seed makes it machine-dependent exactly as in the paper.
	PartitionGeneral PartitionScheme = iota
	// PartitionSimple cuts structured grids into rectangles/boxes.
	PartitionSimple
)

// Config selects the parallel setup for one solve.
type Config struct {
	P       int
	Machine *dist.Machine
	Scheme  PartitionScheme
	Precond precond.Kind
	ILUT    ilu.ILUTOptions       // Block 2 subdomain factorization
	Schur1  precond.Schur1Options // used when Precond == KindSchur1
	Schur2  precond.Schur2Options // used when Precond == KindSchur2
	// UseCG replaces the outer FGMRES with distributed preconditioned CG.
	// Only valid for SPD systems with an SPD preconditioner (Block IC or
	// None).
	UseCG   bool
	Schwarz *precond.SchwarzOptions // non-nil: additive Schwarz instead of Precond
	// OverlapLevels > 0 upgrades Block 1 and Block 2
	// (precond.Kind.HasBlockVariants) to their overlapping (restricted
	// additive Schwarz) variants with this many extra graph layers per
	// subdomain — the §1.1 "increased overlap" extension.
	OverlapLevels int
	// RCM reorders each subdomain block with reverse Cuthill–McKee before
	// factoring: Block 1/2 without overlap, and the Block 2 the resilient
	// ladder falls back to.
	RCM      bool
	Solver   krylov.Options
	KeepX    bool  // gather and return the global solution
	PartSeed int64 // overrides the machine partition seed when nonzero

	// Faults injects a deterministic chaos plan into the communicator
	// (see dist.FaultPlan); the solve then runs under the supervised
	// runtime and every injected failure comes back as a typed error —
	// dist.DeadlockError, dist.CrashError, krylov.BreakdownError — never
	// a hang or an escaped panic. Nil (the default) leaves the runtime
	// and all modeled times bit-identical to a fault-free build.
	Faults *dist.FaultPlan
	// Watchdog bounds the real time the world may go without any rank
	// completing an operation before the solve is declared deadlocked.
	// 0 disables it unless Faults is set (then dist.DefaultWatchdogBudget
	// applies).
	Watchdog time.Duration
	// Resilient enables the krylov.ResilientSolve escalation ladder on
	// the FGMRES path: a breakdown triggers a fresh zero restart, then a
	// fallback to an alternative preconditioner; Result.Recovery reports
	// what happened. Ignored with UseCG.
	Resilient bool

	// Ctx, when non-nil, makes the solve cancelable: once the context is
	// done, every rank leaves its Krylov loop at the next iteration
	// boundary and Result.Err wraps krylov.ErrCanceled. The signal is
	// propagated through an uncharged collective vote (dist.Comm.VoteStop),
	// so all ranks stop at the same iteration and the modeled times, fault
	// streams and traces of a run that is never canceled stay bit-identical
	// to one with Ctx nil.
	Ctx context.Context

	// Collector, when non-nil, records structured observability data for
	// the solve: per-rank spans (communication, SpMV, preconditioner
	// setup/apply, orthogonalization), phase-attributed flop/byte
	// counters, fault events, and solve-level counters (iterations,
	// restarts, breakdowns, recovery steps). The solve then runs under
	// the supervised runtime; modeled times stay bit-identical to a run
	// without a collector. Nil (the default) is a no-op costing one
	// pointer check per instrumented operation.
	Collector *obs.Collector

	// CheckpointEvery > 0 makes every rank snapshot its solver recurrence
	// each CheckpointEvery iterations. The iteration count is replicated
	// across ranks, so the per-rank shards of one iteration form a
	// globally consistent checkpoint; they are assembled and persisted
	// atomically by the sink. Requires CheckpointPath or CheckpointSink.
	CheckpointEvery int
	// CheckpointPath is the durable checkpoint file, rewritten atomically
	// at each complete checkpoint (ckpt.FileWriter).
	CheckpointPath string
	// CheckpointSink overrides the path-based writer: shards go to it
	// instead of to a file.
	CheckpointSink ckpt.Sink
	// Restore resumes the solve mid-recurrence from a loaded checkpoint
	// (ckpt.Load) instead of starting fresh: per-rank solver state,
	// virtual clocks, fault-plan RNG cursors and observability counters
	// are all restored, so the resumed solve replays the uninterrupted
	// run's arithmetic bit for bit. The checkpoint must match the config
	// (world size, preconditioner identity).
	Restore *ckpt.Checkpoint
}

// DefaultConfig mirrors the paper's measurement setup (§4.3): FGMRES(20),
// residual reduction 1e−6, general partitioning, Linux-cluster machine
// model.
func DefaultConfig(p int, kind precond.Kind) Config {
	return Config{
		P:       p,
		Machine: dist.LinuxCluster(),
		Scheme:  PartitionGeneral,
		Precond: kind,
		ILUT:    ilu.DefaultILUT(),
		Schur1:  precond.DefaultSchur1(),
		Schur2:  precond.DefaultSchur2(),
		Solver:  krylov.Options{Restart: 20, MaxIters: 1000, Tol: 1e-6, Flexible: true},
	}
}

// Result reports one solve.
type Result struct {
	Iterations int
	Restarts   int // outer-solver restart cycles after the first
	Converged  bool
	Residual   float64 // final relative residual (estimated)
	SetupTime  float64 // modeled seconds for preconditioner construction
	SolveTime  float64 // modeled seconds for the preconditioned FGMRES solve
	// Wall is the measured wall-clock seconds of the distributed solve
	// itself (partitioning through the last rank finishing). It stops
	// before any post-processing — the KeepX gather and the true-residual
	// recomputation — so walls are comparable across configurations that
	// differ only in post-processing.
	Wall       float64
	PerRank    []dist.Stats // always sorted by rank
	X          []float64    // gathered solution (only when Config.KeepX)
	TrueRelRes float64      // ‖b−Ax‖/‖b‖ recomputed globally (only when KeepX)
	History    []float64    // residual curve (when Config.Solver.RecordHistory)

	// PhaseBreakdown aggregates the recorded spans by phase — virtual
	// seconds (total and slowest-rank), span counts, attributed flops and
	// bytes. Only populated when Config.Collector is set.
	PhaseBreakdown []obs.PhaseStat

	// Err is the solver-level typed error of a failed solve — a
	// krylov.BreakdownError (possibly joined with a dsys.ExchangeError
	// when a communication fault poisoned the recurrence), or a
	// krylov.CanceledError when Config.Ctx was canceled. When the error
	// was observed on a rank other than 0 it is wrapped in a
	// RankSolveError naming the rank. Runtime-level failures (deadlock,
	// crash) are returned as Solve's error instead.
	Err error
	// ErrRank is the rank whose error Err surfaces (the lowest rank with
	// a non-nil solver error), or -1 when Err is nil.
	ErrRank int
	// Recovery is the escalation-ladder log (only with Config.Resilient).
	Recovery *krylov.RecoveryLog
}

// Partition computes the row partition for the problem under cfg. For
// mesh-less problems only the general (graph) scheme is available. An
// invalid request (e.g. P < 1) surfaces the partitioner's typed
// *partition.PartitionError.
func Partition(p *Problem, cfg Config) ([]int, error) {
	seed := partSeed(cfg)
	if p.Mesh == nil {
		return partition.General(PatternGraph(p.A), cfg.P, seed)
	}
	nodes := p.Mesh.NumNodes()
	dpn := p.DofsPerNode
	if dpn <= 0 {
		dpn = 1
	}
	var nodePart []int
	switch cfg.Scheme {
	case PartitionSimple:
		nodePart = partition.Simple(p.Mesh.X, p.Mesh.Dim, cfg.P)
	default:
		ptr, adj := p.Mesh.NodeGraph()
		var err error
		nodePart, err = partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, cfg.P, seed)
		if err != nil {
			return nil, err
		}
	}
	if dpn == 1 {
		return nodePart, nil
	}
	part := make([]int, nodes*dpn)
	for n := 0; n < nodes; n++ {
		for d := 0; d < dpn; d++ {
			part[n*dpn+d] = nodePart[n]
		}
	}
	return part, nil
}

// partSeed is the seed of the general partitioner under cfg.
func partSeed(cfg Config) int64 {
	if cfg.PartSeed != 0 {
		return cfg.PartSeed
	}
	return cfg.Machine.Seed
}

// Solve partitions, distributes and solves the problem, returning the
// paper's measurements. It is a one-shot Session whose one solve charges the
// preconditioner set-up to the virtual clocks, as the paper's times include
// it: SetupTime is the modeled time until every rank has built its
// preconditioner, SolveTime the rest.
func Solve(p *Problem, cfg Config) (*Result, error) {
	if err := resolveConfig(&cfg); err != nil {
		return nil, err
	}
	if len(p.B) != p.A.Rows {
		return nil, fmt.Errorf("core: rhs length %d, want %d", len(p.B), p.A.Rows)
	}
	if err := validateRestore(cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := NewSession(p, cfg)
	if err != nil {
		return nil, err
	}
	return s.run(p.B, SolveOptions{}, start)
}

// trueRelRes recomputes ‖b−Ax‖/‖b‖ globally (‖b−Ax‖ when b is zero).
func trueRelRes(a *sparse.CSR, b, x []float64) float64 {
	r := append([]float64(nil), b...)
	a.MulVecSub(r, x)
	if nb := sparse.Norm2(b); nb > 0 {
		return sparse.Norm2(r) / nb
	}
	return sparse.Norm2(r)
}

// runWorld launches the rank goroutines under the supervised runtime: a
// panic on a rank comes back as a *dist.RankPanicError and, with a fault
// plan or a watchdog budget, deadlocks and crashes as their typed errors.
// Without those options the world and its modeled times are dist.Run's.
func runWorld(cfg Config, fn func(*dist.Comm)) ([]dist.Stats, error) {
	opts := dist.WorldOptions{Faults: cfg.Faults, Watchdog: cfg.Watchdog, Collector: cfg.Collector}
	return dist.RunOpts(cfg.P, cfg.Machine, opts, fn)
}

// precondLabel names the configured preconditioner for span labels.
func precondLabel(cfg Config) string {
	if cfg.Schwarz != nil {
		return "schwarz"
	}
	return string(cfg.Precond)
}

// wrapApply builds the solver-facing preconditioner application, wrapped
// in an observability span when the rank records one.
func wrapApply(c *dist.Comm, name string, pc precond.Preconditioner) krylov.Prec {
	if !c.ObsEnabled() {
		return func(z, r []float64) { pc.Apply(c, z, r) }
	}
	return func(z, r []float64) {
		h := c.BeginSpan(obs.KindPrecondApply, name)
		pc.Apply(c, z, r)
		c.EndSpan(h)
	}
}

// sortPerRank pins Result.PerRank to ascending rank order. Run/RunOpts
// already emit rank-indexed slices, but the result's contract should not
// depend on how the stats were assembled.
func sortPerRank(stats []dist.Stats) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Rank < stats[j].Rank })
}

// recordSolveCounters publishes the solve-level counters and the phase
// breakdown to the configured collector; no-op without one.
func recordSolveCounters(cfg Config, res *Result, breakdown bool) {
	col := cfg.Collector
	if col == nil {
		return
	}
	col.Add("iterations", float64(res.Iterations))
	col.Add("restarts", float64(res.Restarts))
	if breakdown {
		col.Add("breakdowns", 1)
	}
	if res.Converged {
		col.Add("converged", 1)
	} else {
		col.Add("converged", 0)
	}
	if res.Recovery != nil {
		col.Add("recovery_steps", float64(len(res.Recovery.Steps)))
		if res.Recovery.Recovered {
			col.Add("recoveries", 1)
		}
	}
	res.PhaseBreakdown = col.PhaseBreakdown()
}

// recordLayout counts, next to the solve-level counters, whether a set-up
// built its partition and distributed systems or found them on the Problem.
func recordLayout(col *obs.Collector, reused bool) {
	builds, reuses := 1.0, 0.0
	if reused {
		builds, reuses = 0, 1
	}
	col.Add("layout_builds", builds)
	col.Add("layout_reuses", reuses)
}

// buildRankPrecond constructs one rank's preconditioner of the given kind
// under cfg's options. It is shared by the session build (buildPrecs), the
// resilient escalation ladder (which may ask for a kind different from
// cfg.Precond).
func buildRankPrecond(cfg Config, s *dsys.System, kind precond.Kind) (precond.Preconditioner, error) {
	switch {
	case kind.HasBlockVariants() && cfg.RCM:
		return precond.NewBlockOrdered(s, kind == precond.KindBlock1, cfg.ILUT)
	case kind == precond.KindBlock1:
		return precond.NewBlock1(s)
	case kind == precond.KindBlock2:
		return precond.NewBlock2(s, cfg.ILUT)
	case kind == precond.KindBlock2P:
		return precond.NewBlock2Pivot(s, ilu.ILUTPOptions{ILUTOptions: cfg.ILUT, PermTol: 1})
	case kind == precond.KindBlockIC:
		return precond.NewBlockIC(s)
	case kind == precond.KindSchur1:
		return precond.NewSchur1(s, cfg.Schur1)
	case kind == precond.KindSchur2:
		return precond.NewSchur2(s, cfg.Schur2)
	case kind == precond.KindNone:
		return precond.NewIdentity(), nil
	default:
		return nil, &precond.UnknownKindError{Name: string(kind)}
	}
}

// resolveConfig checks P, replaces cfg.Precond by the Kind it spells (see
// precond.ParseKind) or returns the *precond.UnknownKindError: a name no
// constructor knows must not reach the solve, where it would run
// unpreconditioned under the name it was given. With Schwarz set the field
// is not read and not checked. A zero Solver becomes the paper's.
func resolveConfig(cfg *Config) error {
	if cfg.P < 1 {
		return fmt.Errorf("core: P = %d", cfg.P)
	}
	if cfg.Schwarz == nil {
		kind, err := precond.ParseKind(string(cfg.Precond))
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		cfg.Precond = kind
	}
	if cfg.Solver.Restart == 0 {
		cfg.Solver = DefaultConfig(cfg.P, cfg.Precond).Solver
	}
	return nil
}

// resilientLadder assembles the two-stage escalation ladder for one rank:
// stage 0 is the already-built configured preconditioner, stage 1 lazily
// constructs its precond.Kind.Fallback. Because Schur preconditioners
// communicate inside Apply, a per-rank build failure must be decided
// collectively — mixed identity/Schur applications would deadlock — so the
// lazy constructor reduces a success flag across ranks and every rank
// falls back to no preconditioning if any build failed. The fallback's
// setup cost is charged to the virtual clock only when the ladder reaches
// it.
func resilientLadder(cfg Config, c *dist.Comm, s *dsys.System, prec krylov.Prec) []krylov.Stage {
	fk := cfg.Precond.Fallback()
	return []krylov.Stage{
		{Name: string(cfg.Precond), Prec: func() krylov.Prec { return prec }},
		{Name: string(fk), Prec: func() krylov.Prec {
			fpc, err := buildRankPrecond(cfg, s, fk)
			ok := 1.0
			if err != nil {
				ok = 0
			}
			if c.AllReduceMin(ok) == 0 {
				return nil
			}
			c.Compute(setupFlops(fpc))
			return func(z, r []float64) { fpc.Apply(c, z, r) }
		}},
	}
}

// buildPrecs constructs the P preconditioners of cfg. Those wired across
// ranks through shared memory — additive Schwarz and the overlapping blocks —
// are built together; every other kind rank by rank. The per-rank and
// Schwarz builds run concurrently on the worker pool (each reads only the
// shared matrix and its own subdomain); the halo wiring is serial.
func buildPrecs(a *sparse.CSR, lay *layout, cfg Config) ([]precond.Preconditioner, error) {
	pcs := make([]precond.Preconditioner, cfg.P)
	switch {
	case cfg.Schwarz != nil:
		schwarz := make([]*precond.Schwarz, cfg.P)
		errs := make([]error, cfg.P)
		par.Run(cfg.P, func(r int) {
			schwarz[r], errs[r] = precond.NewSchwarz(lay.systems[r], a, *cfg.Schwarz)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := precond.WireHalo(schwarz); err != nil {
			return nil, err
		}
		for r, sw := range schwarz {
			pcs[r] = sw
		}
	case cfg.OverlapLevels > 0 && cfg.Precond.HasBlockVariants():
		blocks, err := precond.BuildOverlapBlocks(a, lay.systems, precond.OverlapOptions{
			Levels:  cfg.OverlapLevels,
			UseILU0: cfg.Precond == precond.KindBlock1,
			ILUT:    cfg.ILUT,
		})
		if err != nil {
			return nil, err
		}
		for r, ob := range blocks {
			pcs[r] = ob
		}
	default:
		errs := make([]error, cfg.P)
		par.Run(cfg.P, func(r int) {
			if pcs[r], errs[r] = buildRankPrecond(cfg, lay.systems[r], cfg.Precond); errs[r] != nil {
				errs[r] = fmt.Errorf("core: rank %d setup: %w", r, errs[r])
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return pcs, nil
}

// setupFlopFactor is the heuristic cost of constructing an incomplete
// factorization, in units of its solve cost: roughly three sweeps over
// the factor per row elimination. The paper's wall-clock times include
// preconditioner setup, so ours charge this to the virtual clock.
const setupFlopFactor = 3

// setupFlops estimates the flops of building pc (heuristic), what every
// path charges for it: setupFlopFactor solve sweeps over the footprint the
// preconditioner reports (Preconditioner.SetupFlops).
func setupFlops(pc precond.Preconditioner) float64 {
	return setupFlopFactor * pc.SetupFlops()
}

// Verify solves the problem sequentially with plain GMRES to tight
// tolerance and returns the max-norm difference against x — a correctness
// oracle used by tests and examples.
func Verify(p *Problem, x []float64) (float64, error) {
	ref := make([]float64, p.A.Rows)
	res := krylov.SolveCSR(p.A, nil, p.B, ref, krylov.Options{Restart: 50, MaxIters: 20000, Tol: 1e-12})
	if !res.Converged {
		return math.NaN(), fmt.Errorf("core: reference solve did not converge (res %g)", res.Final)
	}
	var d float64
	for i := range ref {
		if e := math.Abs(ref[i] - x[i]); e > d {
			d = e
		}
	}
	return d, nil
}
