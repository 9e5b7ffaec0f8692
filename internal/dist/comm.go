package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parapre/internal/obs"
)

// DefaultBufferDepth is the per-ordered-pair channel capacity of a world
// created without options. See WorldOptions.BufferDepth for the deadlock
// regime it implies.
const DefaultBufferDepth = 8

// WorldOptions tunes a communicator world beyond the machine model.
type WorldOptions struct {
	// BufferDepth is the per-ordered-pair channel capacity (0 means
	// DefaultBufferDepth). A sender blocks once it has BufferDepth
	// undelivered messages to one peer, so protocols that post all sends
	// before any receive — like the dsys interface exchange — deadlock
	// when some neighbor must absorb more than BufferDepth messages
	// before its first receive. With the exchange's one-message-per-
	// neighbor pattern any depth ≥ 1 is safe for arbitrarily dense
	// neighbor graphs; raise it for protocols that burst several messages
	// per peer, or lower it to 1 to stress eagerness assumptions.
	BufferDepth int

	// Faults injects the given deterministic chaos plan (nil = none).
	// Fault plans should be driven through RunOpts, which converts
	// injected failures into typed errors.
	Faults *FaultPlan

	// Watchdog is the real-time budget of RunOpts' progress watchdog: if
	// no rank completes an operation for this long while some rank is
	// still running, the world is declared deadlocked, every rank is
	// unwound, and RunOpts returns a DeadlockError with per-rank
	// diagnostics. 0 disables the watchdog (RunOpts applies
	// DefaultWatchdogBudget when a fault plan is set).
	Watchdog time.Duration

	// Collector, when non-nil, records per-rank spans (sends, receives,
	// collectives, and the solver-level phases hooked in through
	// Comm.BeginSpan) and counters into the given observability
	// collector. A nil collector leaves every operation on the
	// single-pointer-check fast path and all modeled times bit-identical
	// to an unobserved world.
	Collector *obs.Collector

	// Transport carries the world's rank communication. Nil (the default)
	// installs the in-process channel transport, which preserves the
	// historical semantics and virtual-time model bit-for-bit; inject a
	// wrapper around it (a test counting traffic, say) to observe the
	// same protocol.
	Transport Transport
}

// World couples P rank goroutines to one machine model. Create it with
// NewWorld and hand each rank its Comm, or use Run / RunOpts to drive
// everything.
type World struct {
	P       int
	Machine *Machine
	opts    WorldOptions
	tr      Transport

	// abort plumbing (always allocated; only exercised under RunOpts
	// with faults or a watchdog).
	abortOnce sync.Once
	abortMu   sync.Mutex
	abortErr  error

	// progress tracking for the watchdog (enabled iff track).
	track    bool
	progress atomic.Uint64
	states   []rankState
}

// rankState is the watchdog-visible snapshot of one rank, updated by the
// rank under its own mutex and sampled by the watchdog goroutine.
type rankState struct {
	mu sync.Mutex
	RankState
}

// NewWorld creates a communicator world of p ranks on machine m with
// default options.
func NewWorld(p int, m *Machine) *World {
	return NewWorldOpts(p, m, WorldOptions{})
}

// NewWorldOpts creates a communicator world with explicit options.
func NewWorldOpts(p int, m *Machine, opts WorldOptions) *World {
	if p < 1 {
		panic(fmt.Sprintf("dist: world size %d", p))
	}
	tr := opts.Transport
	if tr == nil {
		tr = NewLoopback(p, opts.BufferDepth)
	}
	w := &World{
		P:       p,
		Machine: m,
		opts:    opts,
		tr:      tr,
		track:   opts.Watchdog > 0,
		states:  make([]rankState, p),
	}
	for r := range w.states {
		w.states[r].Rank = r
		w.states[r].Peer = -1
		w.states[r].Tag = -1
	}
	return w
}

// abort marks the world failed with err (first abort wins), releases
// every rank blocked in a transport operation or collective, and makes
// all subsequent operations unwind with abortPanic.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.abortMu.Lock()
		w.abortErr = err
		w.abortMu.Unlock()
		w.tr.Abort()
	})
}

// abortReason returns the error the world was aborted with, if any.
func (w *World) abortReason() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// markCrashed records rank r's hard crash and wakes every peer blocked on
// a receive from it.
func (w *World) markCrashed(r int) {
	st := &w.states[r]
	st.mu.Lock()
	st.Crashed = true
	st.mu.Unlock()
	w.tr.MarkCrashed(r)
	w.progress.Add(1)
}

// markDone records that rank r's function returned.
func (w *World) markDone(r int) {
	st := &w.states[r]
	st.mu.Lock()
	st.Done = true
	st.mu.Unlock()
	w.progress.Add(1)
}

// snapshot copies every rank's diagnostic state.
func (w *World) snapshot() []RankState {
	out := make([]RankState, w.P)
	for r := range w.states {
		st := &w.states[r]
		st.mu.Lock()
		out[r] = st.RankState
		st.mu.Unlock()
	}
	return out
}

// allDone reports whether every rank has returned or crashed.
func (w *World) allDone() bool {
	for r := range w.states {
		st := &w.states[r]
		st.mu.Lock()
		fin := st.Done || st.Crashed
		st.mu.Unlock()
		if !fin {
			return false
		}
	}
	return true
}

// Comm is rank r's handle to the world. It is not safe for concurrent use
// by multiple goroutines (exactly like an MPI rank).
type Comm struct {
	w    *World
	rank int

	clock       float64 // virtual seconds since Run started
	computeTime float64 // portion of clock spent in Compute
	faultDelay  float64 // portion of clock that is injected fault stall
	flops       float64
	msgsSent    int
	bytesSent   int

	faults *rankFaults // nil when the world has no fault plan

	rec   *obs.RankRecorder // nil when the world has no collector
	phase string            // innermost open span kind (flop/byte attribution)

	scalar [1]float64 // operand of the scalar collectives (see allReduceScalar)

	leases []lease // what Lease took for this rank, returned when it ends
}

// lease is one value a rank took from a pool for the rest of its world.
type lease struct {
	pool *sync.Pool
	v    any
}

// Comm returns the handle of rank r.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.P {
		panic(fmt.Sprintf("dist: rank %d of %d", r, w.P))
	}
	c := &Comm{w: w, rank: r}
	if w.opts.Faults != nil {
		c.faults = newRankFaults(w.opts.Faults, r)
	}
	c.rec = w.opts.Collector.Rank(r) // nil-safe: nil collector ⇒ nil recorder
	return c
}

// Lease returns the value this rank holds from pool until its world ends:
// the first call takes one with pool.Get and later calls return the same
// one, so a rank that calls Lease in every iteration of a solve touches
// the pool once. Run and RunOpts put every leased value back
// when the rank's function returns (not when it panics: a value an
// unwound rank was writing is dropped). A preconditioner leases the
// scratch its Apply works in this way: it keeps none between solves, and
// a warm Apply allocates nothing whatever the pool keeps.
func (c *Comm) Lease(pool *sync.Pool) any {
	for _, l := range c.leases {
		if l.pool == pool {
			return l.v
		}
	}
	v := pool.Get()
	c.leases = append(c.leases, lease{pool, v})
	return v
}

// release puts back what Lease took.
func (c *Comm) release() {
	for i, l := range c.leases {
		l.pool.Put(l.v)
		c.leases[i] = lease{}
	}
	c.leases = c.leases[:0]
}

// ObsEnabled reports whether this rank records observability data.
func (c *Comm) ObsEnabled() bool { return c.rec != nil }

// ObsCount increments a per-rank observability counter (no-op when
// tracing is off).
func (c *Comm) ObsCount(name string, v float64) {
	if c.rec != nil {
		c.rec.Count(name, v)
	}
}

// SpanHandle is an open observability span on this rank, created by
// BeginSpan and closed by EndSpan. The zero handle (tracing off) is
// inert.
type SpanHandle struct {
	span      obs.Span
	prevPhase string
}

// BeginSpan opens a span of the given kind (see the obs.Kind* constants)
// at the rank's current virtual clock and makes kind the phase to which
// Compute flops and Send bytes are attributed until the matching
// EndSpan. Spans nest; the innermost phase wins attribution. name is an
// optional label shown in trace viewers. With tracing off this is a
// single pointer check.
func (c *Comm) BeginSpan(kind, name string) SpanHandle {
	if c.rec == nil {
		return SpanHandle{}
	}
	h := SpanHandle{span: c.rec.Begin(kind, name, c.clock), prevPhase: c.phase}
	c.phase = kind
	return h
}

// EndSpan closes a span opened with BeginSpan at the current virtual
// clock and restores the enclosing phase.
func (c *Comm) EndSpan(h SpanHandle) {
	if c.rec == nil {
		return
	}
	h.span.End(c.clock)
	c.phase = h.prevPhase
}

// Rank returns this process's rank in [0, P).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size P.
func (c *Comm) Size() int { return c.w.P }

// MachineName returns the name of the machine profile in use.
func (c *Comm) MachineName() string { return c.w.Machine.Name }

// beginOp fires planned crashes and publishes the rank's in-progress op
// for the watchdog. peer/tag are -1 for collectives and compute.
func (c *Comm) beginOp(op string, peer, tag int) {
	if c.faults != nil {
		c.faults.step(c.rank)
	}
	if !c.w.track {
		return
	}
	st := &c.w.states[c.rank]
	st.mu.Lock()
	st.LastOp = op
	st.Peer = peer
	st.Tag = tag
	st.Clock = c.clock
	st.Blocked = true
	st.mu.Unlock()
}

// endOp publishes op completion; every completion counts as world
// progress for the watchdog.
func (c *Comm) endOp() {
	if !c.w.track {
		return
	}
	st := &c.w.states[c.rank]
	st.mu.Lock()
	st.Blocked = false
	st.Ops++
	st.Clock = c.clock
	st.mu.Unlock()
	c.w.progress.Add(1)
}

// Compute charges the virtual clock for flops floating-point operations
// of local work. Solver kernels call this with their operation counts.
// A straggler fault plan stretches the wait on the clock, but the
// stretch is booked as Stats.FaultDelay, not ComputeTime: the modeled
// cost of the work itself is machine-determined and must not change
// under chaos.
func (c *Comm) Compute(flops float64) {
	c.beginOp("compute", -1, -1)
	t := c.w.Machine.computeTime(flops)
	if c.faults != nil && c.faults.straggle > 1 {
		extra := t * (c.faults.straggle - 1)
		c.clock += extra
		c.faultDelay += extra
		if c.rec != nil {
			c.rec.Count("fault_straggle_seconds", extra)
		}
	}
	c.clock += t
	c.computeTime += t
	c.flops += flops
	if c.rec != nil {
		c.rec.CountPhase("flops", c.phase, flops)
	}
	c.endOp()
}

// Send transmits data to rank to with the given tag. The data slice is
// copied, so the caller may reuse its buffer. The sender's clock is
// charged the per-message overhead α before the message is stamped, so
// the receiver observes it too; the receiver additionally pays
// α + β·bytes on delivery. Send blocks only when the channel buffer is
// full (WorldOptions.BufferDepth outstanding messages per ordered pair).
func (c *Comm) Send(to, tag int, data []float64) {
	c.beginOp("send", to, tag)
	var sp obs.Span
	if c.rec != nil {
		sp = c.rec.BeginComm(obs.KindSend, to, tag, 8*len(data), c.clock)
		c.rec.CountPhase("bytes", c.phase, float64(8*len(data)))
	}
	buf := append([]float64(nil), data...)
	c.msgsSent++
	c.bytesSent += 8 * len(buf)
	// Sender-side overhead: the α spent handing the message to the
	// network is the sender's time, not the receiver's.
	c.clock += c.w.Machine.Latency
	m := Message{Tag: tag, Data: buf, Time: c.clock}
	if c.faults != nil {
		delay, dropped, corrupted := c.faults.sendFaults(buf, to)
		m.Time += delay
		m.FDelay = delay
		if c.rec != nil {
			if delay > 0 {
				c.rec.Count("fault_delays", 1)
			}
			if corrupted {
				c.rec.Count("fault_corruptions", 1)
			}
			if dropped {
				c.rec.Count("fault_drops", 1)
			}
		}
		if dropped {
			sp.End(c.clock)
			c.endOp()
			return // the network ate it; the stats above still count the send
		}
	}
	if err := c.w.tr.Send(c.rank, to, m); err != nil {
		// A world abort unwinds the rank quietly; any other transport
		// failure keeps the legacy panicking contract of Send — RunOpts
		// converts it into a typed error.
		if errors.Is(err, ErrWorldAborted) {
			panic(abortPanic{})
		}
		panic(err)
	}
	sp.End(c.clock)
	c.endOp()
}

// Recv receives the next message from rank from, which must carry the
// expected tag. It is the panicking wrapper around RecvErr: a tag
// mismatch or crashed peer panics with the typed error as the panic
// value. For programs that drive the communicator themselves (tests, the
// benchmark's ping-pong); the solver stack receives through dsys.Halo.
func (c *Comm) Recv(from, tag int) []float64 {
	data, err := c.RecvErr(from, tag)
	if err != nil {
		panic(err)
	}
	return data
}

// RecvErr receives the next message from rank from. The receiver's clock
// advances to max(own, sender) + α + β·bytes. A message with the wrong
// tag yields a *TagMismatchError; a receive from a hard-crashed peer with
// no message left in flight yields a *PeerCrashedError.
func (c *Comm) RecvErr(from, tag int) ([]float64, error) {
	c.beginOp("recv", from, tag)
	var sp obs.Span
	if c.rec != nil {
		sp = c.rec.BeginComm(obs.KindRecv, from, tag, 0, c.clock)
	}
	m, err := c.w.tr.Recv(c.rank, from)
	if err != nil {
		if errors.Is(err, ErrWorldAborted) {
			panic(abortPanic{})
		}
		sp.End(c.clock)
		c.endOp()
		if errors.Is(err, ErrPeerGone) {
			return nil, &PeerCrashedError{Rank: c.rank, Peer: from, Tag: tag}
		}
		return nil, err // transport-level typed error
	}
	if m.Tag != tag {
		sp.End(c.clock)
		c.endOp()
		return nil, &TagMismatchError{Rank: c.rank, Peer: from, Want: tag, Got: m.Tag}
	}
	if m.Time > c.clock {
		// The receiver idles until the message's stamped arrival. The
		// part of that wait caused by injected delay jitter is fault
		// stall, not modeled communication: book it separately so chaos
		// runs do not inflate the comm fraction.
		wait := m.Time - c.clock
		if m.FDelay > 0 {
			d := m.FDelay
			if d > wait {
				d = wait
			}
			c.faultDelay += d
		}
		c.clock = m.Time
	}
	c.clock += c.w.Machine.messageTime(8 * len(m.Data))
	sp.End(c.clock)
	c.endOp()
	return m.Data, nil
}

// Stats reports this rank's accounting so far. The three buckets
// partition the clock exactly: Clock = ComputeTime + CommTime +
// FaultDelay.
type Stats struct {
	Rank        int
	Clock       float64 // total virtual seconds
	ComputeTime float64 // virtual seconds of local work (unstretched by fault plans)
	CommTime    float64 // Clock − ComputeTime − FaultDelay: modeled communication and wait
	FaultDelay  float64 // injected chaos stall: delay jitter waits and straggler stretch
	Flops       float64
	MsgsSent    int
	BytesSent   int
}

// Stats returns a snapshot of this rank's accounting.
func (c *Comm) Stats() Stats {
	return Stats{
		Rank:        c.rank,
		Clock:       c.clock,
		ComputeTime: c.computeTime,
		CommTime:    c.clock - c.computeTime - c.faultDelay,
		FaultDelay:  c.faultDelay,
		Flops:       c.flops,
		MsgsSent:    c.msgsSent,
		BytesSent:   c.bytesSent,
	}
}

// RestoreStats resets this rank's accounting to a previously captured
// snapshot — the checkpoint-restore path, which must resume the virtual
// clocks exactly where the interrupted run left them so modeled times
// are independent of how often the solve was killed. It must be called
// before the rank performs any operation.
func (c *Comm) RestoreStats(s Stats) {
	c.clock = s.Clock
	c.computeTime = s.ComputeTime
	c.faultDelay = s.FaultDelay
	c.flops = s.Flops
	c.msgsSent = s.MsgsSent
	c.bytesSent = s.BytesSent
}

// FaultCursor returns the position of this rank's fault-plan RNG stream:
// the count of raw draws consumed plus the operation counter driving the
// planned crash point. Zero values on a world without a fault plan.
func (c *Comm) FaultCursor() (draws uint64, ops int) {
	if c.faults == nil {
		return 0, 0
	}
	return c.faults.src.n, c.faults.ops
}

// FastForwardFaults advances this rank's fault-plan RNG stream to the
// given cursor (a previous FaultCursor result), so a restored solve sees
// exactly the faults the uninterrupted run would have seen from that
// point on. No-op without a fault plan.
func (c *Comm) FastForwardFaults(draws uint64, ops int) {
	if c.faults == nil {
		return
	}
	for c.faults.src.n < draws {
		c.faults.src.Int63()
	}
	c.faults.ops = ops
}

// ObsCounterSnapshot copies this rank's observability counters (nil when
// tracing is off) for inclusion in a solver checkpoint.
func (c *Comm) ObsCounterSnapshot() map[string]float64 {
	return c.rec.CounterSnapshot()
}

// ObsMergeCounters folds previously checkpointed counters back into this
// rank's recorder on restore, so post-restore metrics cover the whole
// logical solve. No-op when tracing is off.
func (c *Comm) ObsMergeCounters(m map[string]float64) {
	c.rec.MergeCounters(m)
}

// MaxClock returns the slowest rank's virtual time — the modeled
// wall-clock time of the parallel run. An empty slice yields 0 (there is
// nothing to time); callers that must distinguish "no ranks" from "zero
// time", or that cannot vouch for the slice's integrity, use
// MaxClockErr.
func MaxClock(stats []Stats) float64 {
	var m float64
	for _, s := range stats {
		if s.Clock > m {
			m = s.Clock
		}
	}
	return m
}

// MaxClockErr is the checked variant of MaxClock: it rejects an empty
// slice and a slice whose entries are not exactly ranks 0..len-1 in
// order (the shape every Run/RunOpts result has), so silent
// zero-time results and duplicated or misassembled per-rank stats
// surface as errors instead of poisoned timings.
func MaxClockErr(stats []Stats) (float64, error) {
	if len(stats) == 0 {
		return 0, &StatsError{Index: -1}
	}
	for i, s := range stats {
		if s.Rank != i {
			return 0, &StatsError{Index: i, Got: s.Rank}
		}
	}
	return MaxClock(stats), nil
}
