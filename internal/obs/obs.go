// Package obs is the observability layer of the repository: structured
// tracing and metrics riding on the virtual-time runtime of package dist.
//
// The paper's whole argument is a timing breakdown — setup vs. iteration
// cost, communication vs. computation per preconditioner (Tables 2–5) —
// so every instrumented operation records a span carrying both clocks:
// the virtual-clock interval the machine model charges (the quantity the
// paper tabulates) and the wall-clock interval the operation actually
// took on this host. Spans are grouped per simulated rank, counters
// accumulate per rank and globally, and two exporters serialize the
// collected state: a Chrome trace-event JSON file (chrome://tracing,
// Perfetto) and a Prometheus-style text snapshot.
//
// The layer is nil-safe end to end: a nil *Collector and a nil
// *RankRecorder accept every call as a no-op, so instrumented code runs
// with a single pointer check per operation when tracing is disabled and
// the virtual clocks are bit-identical with and without a collector
// attached. Rank recorders are single-writer by construction (each is
// owned by one rank goroutine, like a dist.Comm), so recording takes no
// locks; exports must happen after the world has finished (the usual
// WaitGroup happens-before edge).
package obs

import (
	"sort"
	"sync"
	"time"
)

// Span kinds used by the instrumented layers. Kinds double as the phase
// label for flop/byte attribution: while a span of kind K is open on a
// rank, that rank's Compute flops and Send bytes are charged to phase K.
const (
	KindSend         = "send"
	KindRecv         = "recv"
	KindAllReduce    = "allreduce"
	KindBarrier      = "barrier"
	KindAllGather    = "allgather"
	KindExchange     = "exchange"
	KindSpMV         = "spmv"
	KindPrecondSetup = "precond_setup"
	KindPrecondApply = "precond_apply"
	KindOrth         = "orth"
	KindAttempt      = "resilient_attempt"
)

// PhaseOther is the phase charged while no span is open.
const PhaseOther = "other"

// Event is one recorded span: a named interval on one rank carrying the
// virtual-clock boundaries (seconds on the modeled machine) and the
// wall-clock boundaries (nanoseconds since the collector's epoch). Peer
// and Tag are -1 for non-point-to-point events; Bytes is the payload
// size of communication events.
type Event struct {
	Rank   int
	Seq    int // per-rank sequence number (deterministic)
	Kind   string
	Name   string // optional label ("Schur 1", …); empty for most spans
	VStart float64
	VEnd   float64
	WStart int64 // wall nanoseconds since the collector epoch
	WEnd   int64
	Peer   int
	Tag    int
	Bytes  int
}

// Dur returns the span's virtual duration in seconds.
func (e Event) Dur() float64 { return e.VEnd - e.VStart }

// Collector gathers spans and counters for one traced run. The zero
// value is not usable; create collectors with NewCollector. A nil
// *Collector is a valid "tracing disabled" collector: every method is a
// no-op and Rank returns a nil recorder.
type Collector struct {
	epoch time.Time

	mu       sync.Mutex
	ranks    map[int]*RankRecorder
	counters map[string]float64
	live     func(Event)
}

// SetLiveSink registers a callback invoked with every completed span as
// its Span.End runs — the hook a streaming service uses to push phase
// events to subscribers while the solve is still in flight. The sink is
// copied into each rank recorder when the recorder is created, so it
// must be set before the world starts; it runs on rank goroutines
// (possibly several at once) and must be cheap and thread-safe. A nil
// sink (the default) changes nothing: recording stays lock-free and
// allocation-free. No-op on a nil collector.
func (c *Collector) SetLiveSink(fn func(Event)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.live = fn
	c.mu.Unlock()
}

// NewCollector creates an empty collector whose wall-clock epoch is now.
func NewCollector() *Collector {
	return &Collector{
		epoch:    time.Now(),
		ranks:    make(map[int]*RankRecorder),
		counters: make(map[string]float64),
	}
}

// Enabled reports whether the collector actually records (false for the
// nil collector).
func (c *Collector) Enabled() bool { return c != nil }

// Rank returns the recorder of rank r, creating it on first use. Safe
// for concurrent use; returns nil on a nil collector. Reusing a
// collector across several worlds appends to the same per-rank streams.
func (c *Collector) Rank(r int) *RankRecorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.ranks[r]
	if !ok {
		rec = &RankRecorder{rank: r, epoch: c.epoch, counters: make(map[string]float64), live: c.live}
		c.ranks[r] = rec
	}
	return rec
}

// Add increments the named collector-level counter (driver-side totals:
// iterations, restarts, fault crashes, …). Safe for concurrent use;
// no-op on a nil collector.
func (c *Collector) Add(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += v
	c.mu.Unlock()
}

// Set overwrites the named collector-level gauge.
func (c *Collector) Set(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] = v
	c.mu.Unlock()
}

// rankList returns the recorders sorted by rank.
func (c *Collector) rankList() []*RankRecorder {
	out := make([]*RankRecorder, 0, len(c.ranks))
	for _, rec := range c.ranks {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// Events returns every recorded span sorted by (rank, sequence) — a
// deterministic order for a deterministic run. Must be called after the
// recording world has finished.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, rec := range c.rankList() {
		out = append(out, rec.events...)
	}
	return out
}

// counterKey is one exported counter sample: a name, an optional rank
// label (-1 = global), and a value.
type counterKey struct {
	name string
	rank int
}

// snapshotCounters merges the collector-level counters with every
// rank's, in deterministic order: global counters first (sorted by
// name), then per-rank counters sorted by (name, rank).
func (c *Collector) snapshotCounters() ([]counterKey, map[counterKey]float64) {
	vals := make(map[counterKey]float64)
	var keys []counterKey
	for name, v := range c.counters {
		k := counterKey{name: name, rank: -1}
		vals[k] = v
		keys = append(keys, k)
	}
	for _, rec := range c.rankList() {
		for name, v := range rec.counters {
			k := counterKey{name: name, rank: rec.rank}
			vals[k] = v
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].rank < keys[j].rank
	})
	return keys, vals
}

// PhaseStat aggregates every span of one kind across the collector.
type PhaseStat struct {
	Phase        string  // span kind
	Count        int     // number of spans
	MaxSeconds   float64 // slowest rank's summed virtual seconds in this phase
	TotalSeconds float64 // virtual seconds summed across all ranks
	Flops        float64 // flops charged while this phase was innermost
	Bytes        int     // bytes sent while this phase was innermost
}

// PhaseBreakdown aggregates the recorded spans into per-phase totals,
// sorted by phase name. Virtual time is attributed to a span's own kind
// even when spans nest (an exchange inside an spmv counts toward both);
// flops and bytes are attributed to the innermost open phase only.
func (c *Collector) PhaseBreakdown() []PhaseStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := make(map[string]*PhaseStat)
	get := func(phase string) *PhaseStat {
		st, ok := agg[phase]
		if !ok {
			st = &PhaseStat{Phase: phase}
			agg[phase] = st
		}
		return st
	}
	for _, rec := range c.rankList() {
		perRank := make(map[string]float64)
		for _, e := range rec.events {
			st := get(e.Kind)
			st.Count++
			st.TotalSeconds += e.Dur()
			perRank[e.Kind] += e.Dur()
		}
		for phase, sec := range perRank {
			if st := get(phase); sec > st.MaxSeconds {
				st.MaxSeconds = sec
			}
		}
		for name, v := range rec.counters {
			if phase, ok := cutPrefix(name, "flops/"); ok {
				get(phase).Flops += v
			}
			if phase, ok := cutPrefix(name, "bytes/"); ok {
				get(phase).Bytes += int(v)
			}
		}
	}
	out := make([]PhaseStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// cutPrefix is strings.CutPrefix without pulling the dependency into the
// hot-path file set.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// RankRecorder records the spans and counters of one rank. It is owned
// by exactly one goroutine (the rank), so recording is lock-free; a nil
// *RankRecorder ignores every call.
type RankRecorder struct {
	rank     int
	epoch    time.Time
	events   []Event
	counters map[string]float64
	live     func(Event) // copied from the collector at creation; may be nil
}

// Span is a handle to an open event. The zero Span (from a nil
// recorder) is inert: End and the setters do nothing.
type Span struct {
	rec *RankRecorder
	idx int
}

// Begin opens a span of the given kind at virtual time vclock. On a nil
// recorder it returns the inert zero Span.
func (r *RankRecorder) Begin(kind, name string, vclock float64) Span {
	if r == nil {
		return Span{}
	}
	r.events = append(r.events, Event{
		Rank:   r.rank,
		Seq:    len(r.events),
		Kind:   kind,
		Name:   name,
		VStart: vclock,
		VEnd:   vclock,
		WStart: time.Since(r.epoch).Nanoseconds(),
		Peer:   -1,
		Tag:    -1,
	})
	return Span{rec: r, idx: len(r.events) - 1}
}

// BeginComm opens a point-to-point span with peer/tag/payload metadata.
func (r *RankRecorder) BeginComm(kind string, peer, tag, bytes int, vclock float64) Span {
	s := r.Begin(kind, "", vclock)
	if s.rec != nil {
		e := &s.rec.events[s.idx]
		e.Peer, e.Tag, e.Bytes = peer, tag, bytes
	}
	return s
}

// End closes the span at virtual time vclock and, when the collector has
// a live sink, publishes the completed event to it.
func (s Span) End(vclock float64) {
	if s.rec == nil {
		return
	}
	e := &s.rec.events[s.idx]
	e.VEnd = vclock
	e.WEnd = time.Since(s.rec.epoch).Nanoseconds()
	if s.rec.live != nil {
		s.rec.live(*e)
	}
}

// Count increments the named per-rank counter. No-op on nil.
func (r *RankRecorder) Count(name string, v float64) {
	if r == nil {
		return
	}
	r.counters[name] += v
}

// CountPhase increments the phase-labeled counter name/phase ("flops/"
// and "bytes/" families feed PhaseBreakdown). An empty phase is charged
// to PhaseOther.
func (r *RankRecorder) CountPhase(name, phase string, v float64) {
	if r == nil {
		return
	}
	if phase == "" {
		phase = PhaseOther
	}
	r.counters[name+"/"+phase] += v
}

// CounterSnapshot returns a copy of the per-rank counters — the piece of
// the observability state a solver checkpoint carries, so counts survive
// process death. Nil on a nil recorder.
func (r *RankRecorder) CounterSnapshot() map[string]float64 {
	if r == nil || len(r.counters) == 0 {
		return nil
	}
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// MergeCounters adds previously snapshotted counter values back into the
// recorder — the checkpoint-restore path. No-op on a nil recorder.
func (r *RankRecorder) MergeCounters(m map[string]float64) {
	if r == nil {
		return
	}
	for k, v := range m {
		r.counters[k] += v
	}
}
