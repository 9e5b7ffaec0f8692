package dist

import (
	"errors"
	"sync"

	"parapre/internal/obs"
)

// reducer is a reusable combining barrier. All ranks must call the same
// collectives in the same order (the usual MPI contract). Each rank's
// contribution is parked in its own slot and the final arrival combines
// them in rank order, so floating-point results are bit-for-bit
// deterministic regardless of goroutine scheduling. Results are
// double-buffered by generation parity: a rank cannot be two collectives
// ahead of another, so parity slots never collide. A world abort (the
// RunOpts watchdog or a rank panic) wakes every waiter, which then
// reports ErrWorldAborted.
type reducer struct {
	mu   sync.Mutex
	cond *sync.Cond
	p    int

	count   int
	gen     int // generation currently accumulating
	done    int // number of fully completed generations
	aborted bool
	inputs  [][]float64
	clocks  []float64

	result   [2][]float64
	maxTimes [2]float64
}

func newReducer(p int) *reducer {
	r := &reducer{p: p, inputs: make([][]float64, p), clocks: make([]float64, p)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// abort releases every rank blocked in a collective; they and all later
// arrivals return ErrWorldAborted.
func (r *reducer) abort() {
	r.mu.Lock()
	r.aborted = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// reduce runs one collective wave in place: x holds rank's contribution on
// entry and, on a nil error, the combination of everyone's contributions
// using op (applied in rank order) on return; the maximum deposited clock
// is returned to all ranks. op must be equivalent across ranks. The
// reducer keeps its own copy of every contribution, so a steady stream of
// equal-length waves allocates nothing.
func (r *reducer) reduce(rank int, x []float64, clock float64, op func(acc, in []float64)) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted {
		return 0, ErrWorldAborted
	}
	myGen := r.gen
	r.inputs[rank] = append(r.inputs[rank][:0], x...)
	r.clocks[rank] = clock
	r.count++
	if r.count == r.p {
		slot := myGen & 1
		acc := append(r.result[slot][:0], r.inputs[0]...)
		maxClock := r.clocks[0]
		for q := 1; q < r.p; q++ {
			op(acc, r.inputs[q])
			if r.clocks[q] > maxClock {
				maxClock = r.clocks[q]
			}
		}
		r.result[slot] = acc
		r.maxTimes[slot] = maxClock
		r.count = 0
		r.gen++
		r.done++
		r.cond.Broadcast()
	} else {
		for r.done <= myGen && !r.aborted {
			r.cond.Wait()
		}
		if r.aborted {
			return 0, ErrWorldAborted
		}
	}
	slot := myGen & 1
	copy(x, r.result[slot])
	return r.maxTimes[slot], nil
}

// reduce runs one collective wave over x in place through the world's
// transport and returns the maximum deposited clock, converting a world
// abort into the internal unwind panic. Any other transport failure keeps
// the panicking contract of the collective API; RunOpts converts it into a
// typed error.
func (c *Comm) reduce(x []float64, kind ReduceKind) float64 {
	maxT, err := c.w.tr.Reduce(c.rank, x, c.clock, kind)
	if err != nil {
		if errors.Is(err, ErrWorldAborted) {
			panic(abortPanic{})
		}
		panic(err)
	}
	return maxT
}

// allReduce is one charged all-reduce wave over x in place: fault step,
// watchdog bookkeeping, observability span and the virtual-clock cost of
// a collective of len(x) values.
func (c *Comm) allReduce(x []float64, kind ReduceKind) {
	c.beginOp("allreduce", -1, -1)
	sp := c.beginCollective(obs.KindAllReduce, 8*len(x))
	maxT := c.reduce(x, kind)
	c.syncClock(maxT, 8*len(x))
	sp.End(c.clock)
	c.endOp()
}

// allReduceScalar runs allReduce on the rank's one-element scratch, so
// the scalar collectives — one per inner product of every Krylov
// iteration — allocate nothing.
func (c *Comm) allReduceScalar(x float64, kind ReduceKind) float64 {
	c.scalar[0] = x
	c.allReduce(c.scalar[:], kind)
	return c.scalar[0]
}

// AllReduceSum sums x across all ranks; every rank receives the total.
func (c *Comm) AllReduceSum(x float64) float64 {
	return c.allReduceScalar(x, ReduceSum)
}

// AllReduceSumVec element-wise sums the vector across ranks into a fresh
// slice. All ranks must pass equal-length vectors. The summation order is
// rank order, so results are deterministic.
func (c *Comm) AllReduceSumVec(x []float64) []float64 {
	out := append([]float64(nil), x...)
	c.allReduce(out, ReduceSum)
	return out
}

// beginCollective opens the observability span of one collective (no-op
// with tracing off).
func (c *Comm) beginCollective(kind string, bytes int) obs.Span {
	if c.rec == nil {
		return obs.Span{}
	}
	return c.rec.BeginComm(kind, -1, -1, bytes, c.clock)
}

// AllReduceMax returns the maximum of x across ranks.
func (c *Comm) AllReduceMax(x float64) float64 {
	return c.allReduceScalar(x, ReduceMax)
}

// AllReduceMin returns the minimum of x across ranks.
func (c *Comm) AllReduceMin(x float64) float64 {
	return c.allReduceScalar(x, ReduceMin)
}

// Barrier synchronizes all ranks (and their virtual clocks).
func (c *Comm) Barrier() {
	c.beginOp("barrier", -1, -1)
	sp := c.beginCollective(obs.KindBarrier, 0)
	maxT := c.reduce(nil, ReduceSum)
	c.syncClock(maxT, 0)
	sp.End(c.clock)
	c.endOp()
}

// AllGather concatenates each rank's contribution in rank order; every
// rank receives the full concatenation. Contributions may have different
// lengths but every rank must know all of them (counts[r] = length of
// rank r's piece).
func (c *Comm) AllGather(x []float64, counts []int) []float64 {
	c.beginOp("allgather", -1, -1)
	total := 0
	offs := make([]int, c.w.P)
	for r, n := range counts {
		offs[r] = total
		total += n
	}
	buf := make([]float64, total)
	copy(buf[offs[c.rank]:], x)
	sp := c.beginCollective(obs.KindAllGather, 8*total)
	maxT := c.reduce(buf, ReduceSum)
	c.syncClock(maxT, 8*total)
	sp.End(c.clock)
	c.endOp()
	return buf
}

// VoteStop is an out-of-band control collective: every rank contributes
// its local stop observation and all ranks receive the OR of the votes,
// so a cooperative cancellation decision is identical everywhere even
// when only one rank saw the signal. It must be called collectively, in
// the same position of every rank's op sequence, like every collective.
//
// Unlike the data collectives above it is deliberately uncharged and
// invisible: no virtual-clock cost (the modeled times of a canceled-then-
// ignored run stay bit-identical to an unvoted one), no fault-plan op
// step (seeded crash/corruption schedules keep their exact firing
// points), and no observability span (golden traces are unchanged). The
// underlying combining barrier still gives the usual world-abort unwind.
func (c *Comm) VoteStop(stop bool) bool {
	c.scalar[0] = 0
	if stop {
		c.scalar[0] = 1
	}
	c.reduce(c.scalar[:], ReduceMax)
	return c.scalar[0] != 0
}

func (c *Comm) syncClock(maxT float64, bytes int) {
	if maxT > c.clock {
		c.clock = maxT
	}
	c.clock += c.w.Machine.collectiveTime(c.w.P, bytes)
}
