package ilu

import (
	"os"
	"sync/atomic"

	"parapre/internal/par"
)

// Level-scheduled triangular solves.
//
// A sparse triangular solve is a topological sweep of the factor's
// dependency DAG: row i of the forward sweep depends exactly on the rows
// named by its L-part columns, and row i of the backward sweep on its
// U-part columns. Grouping rows by their topological level (the length of
// the longest dependency chain ending at the row) turns the sweep into a
// sequence of levels whose rows are mutually independent, so each level
// can run across the par worker pool with one barrier per level.
//
// Determinism: every row still accumulates its own terms left to right
// over exactly the stored entries, and each row is written by exactly one
// worker, so the scheduled sweep is bit-identical to the serial sweep at
// any worker count — the level order only reorders *between* rows whose
// results never feed each other within a level.
//
// The analysis is O(nnz), computed once per factor (eagerly at
// factorization time when the process can run parallel sweeps, lazily
// otherwise) and cached behind an atomic pointer: factors are shared
// read-only between goroutines in a few places and concurrent first
// solves must not race. Racing builders produce identical schedules; the
// last store wins.

// EnvLevelSched selects the level-scheduling mode: "off" forces the plain
// serial sweeps, "force" always routes through the level schedule (used
// by the bit-identity tests), anything else is the profitability-gated
// default.
const EnvLevelSched = "PARAPRE_LEVELSCHED"

// LevelMode selects how triangular solves choose between the serial sweep
// and the level-scheduled sweep.
type LevelMode int32

const (
	// LevelAuto uses the level schedule only when the worker pool can run
	// it concurrently and the level structure is wide enough to pay for
	// the per-level barriers.
	LevelAuto LevelMode = iota
	// LevelForce always routes through the level schedule (still serial
	// inside par.ForLevels when the process has a single P) — the mode the
	// bit-identity tests pin.
	LevelForce
	// LevelOff always uses the plain serial sweeps.
	LevelOff
)

var levelSchedMode atomic.Int32

func init() {
	switch os.Getenv(EnvLevelSched) {
	case "off":
		levelSchedMode.Store(int32(LevelOff))
	case "force":
		levelSchedMode.Store(int32(LevelForce))
	}
}

func levelMode() LevelMode { return LevelMode(levelSchedMode.Load()) }

// SetLevelMode sets the level-scheduling mode for all subsequent solves
// and returns the previous mode. Tests use it to pin a specific kernel
// path; production code leaves the default.
func SetLevelMode(m LevelMode) LevelMode {
	return LevelMode(levelSchedMode.Swap(int32(m)))
}

// Profitability gate. Each level costs one barrier (hundreds of
// nanoseconds of synchronization), so the schedule only wins when the
// average level holds enough rows to keep every worker busy past that
// cost. Narrow/deep structures — strongly sequential factors such as a
// tridiagonal ILU — fall back to the serial sweep.
const (
	levelMinRows  = 2048 // below this the whole sweep is cheaper than any fan-out
	levelMinWidth = 48   // minimum average rows per level, per worker
)

// levelSet groups the rows of one triangular sweep by topological level:
// level l owns rows[ptr[l]:ptr[l+1]], ascending within the level.
type levelSet struct {
	ptr  []int
	rows []int
}

// profitable reports whether the level structure is wide enough for the
// scheduled sweep to beat the serial one at w workers.
func (ls *levelSet) profitable(w int) bool {
	l := len(ls.ptr) - 1
	n := len(ls.rows)
	return l > 0 && n >= levelMinRows && n >= levelMinWidth*w*l
}

// triSched is the cached pair of level sets of one factorization's
// forward and backward sweeps.
type triSched struct {
	fwd, bwd levelSet
}

// bucketLevels converts per-row levels into a levelSet via a counting
// sort, keeping rows ascending within each level.
func bucketLevels(lvl []int) levelSet {
	n := len(lvl)
	maxL := 0
	for _, l := range lvl {
		if l > maxL {
			maxL = l
		}
	}
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	ptr := make([]int, maxL+2)
	for _, l := range lvl {
		ptr[l+1]++
	}
	for l := 0; l <= maxL; l++ {
		ptr[l+1] += ptr[l]
	}
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	rows := make([]int, n)
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	next := append([]int(nil), ptr[:maxL+1]...)
	for i, l := range lvl {
		rows[next[l]] = i
		next[l]++
	}
	return levelSet{ptr: ptr, rows: rows}
}

// buildLUSched computes the forward (strict L) and backward (strict U)
// level sets of a split LU factor.
func buildLUSched(l, u *tri, n int) *triSched {
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	lvl := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := l.row(i)
		lvl[i] = levelAfter(lvl, cols)
	}
	fwd := bucketLevels(lvl)
	// Backward levels: dependencies are the U-part columns j > i, whose
	// levels are already final when row i is visited in descending order,
	// so lvl can be reused in place.
	for i := n - 1; i >= 0; i-- {
		cols, _ := u.row(i)
		lvl[i] = levelAfter(lvl, cols)
	}
	bwd := bucketLevels(lvl)
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	return &triSched{fwd: fwd, bwd: bwd}
}

// levelAfter returns the level of a row whose dependencies are deps: one
// past the deepest of them, 0 for a row that depends on nothing.
func levelAfter[C int | int32](lvl []int, deps []C) int {
	l := 0
	for _, j := range deps {
		if d := lvl[j] + 1; d > l {
			l = d
		}
	}
	return l
}

// buildCholSched computes the level sets of an incomplete Cholesky pair:
// the forward sweep over L (diagonal last in each row) and the backward
// sweep over Lᵀ (diagonal first).
func buildCholSched(lrp, lci, trp, tci []int, n int) *triSched {
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	lvl := make([]int, n)
	for i := 0; i < n; i++ {
		lvl[i] = levelAfter(lvl, lci[lrp[i]:lrp[i+1]-1])
	}
	fwd := bucketLevels(lvl)
	for i := n - 1; i >= 0; i-- {
		lvl[i] = levelAfter(lvl, tci[trp[i]+1:trp[i+1]])
	}
	bwd := bucketLevels(lvl)
	//lint:ignore allocfree level schedule is built once per factor and cached (prepLevels/atomic.Pointer)
	return &triSched{fwd: fwd, bwd: bwd}
}

// levels returns the cached level schedule, building it on first use.
func (f *LU) levels() *triSched {
	if s := f.lvl.Load(); s != nil {
		return s
	}
	s := buildLUSched(&f.l, &f.u, f.N())
	f.lvl.Store(s)
	return s
}

// sched returns the level schedule when the current mode and worker pool
// would use it for at least one sweep, nil otherwise. In LevelAuto on a
// serial configuration it returns nil without building anything, so the
// plain sweeps carry zero scheduling overhead.
func (f *LU) sched() *triSched {
	switch levelMode() {
	case LevelOff:
		return nil
	case LevelForce:
		return f.levels()
	}
	w := par.Workers()
	if w <= 1 || !par.HaveParallelism() {
		return nil
	}
	s := f.levels()
	if !s.fwd.profitable(w) && !s.bwd.profitable(w) {
		return nil
	}
	return s
}

// prepLevels builds the schedule at factorization time when the process
// could run level-scheduled sweeps, so the first Solve does not pay the
// analysis.
func (f *LU) prepLevels() {
	switch levelMode() {
	case LevelOff:
	case LevelForce:
		f.levels()
	default:
		if par.Workers() > 1 && par.HaveParallelism() {
			f.levels()
		}
	}
}

func (c *Chol) levels() *triSched {
	if s := c.lvl.Load(); s != nil {
		return s
	}
	s := buildCholSched(c.L.RowPtr, c.L.ColIdx, c.Lt.RowPtr, c.Lt.ColIdx, c.N())
	c.lvl.Store(s)
	return s
}

func (c *Chol) sched() *triSched {
	switch levelMode() {
	case LevelOff:
		return nil
	case LevelForce:
		return c.levels()
	}
	w := par.Workers()
	if w <= 1 || !par.HaveParallelism() {
		return nil
	}
	s := c.levels()
	if !s.fwd.profitable(w) && !s.bwd.profitable(w) {
		return nil
	}
	return s
}

func (c *Chol) prepLevels() {
	switch levelMode() {
	case LevelOff:
	case LevelForce:
		c.levels()
	default:
		if par.Workers() > 1 && par.HaveParallelism() {
			c.levels()
		}
	}
}
