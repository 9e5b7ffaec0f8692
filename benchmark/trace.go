package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"parapre/internal/obs"
)

// The traced pass records two kinds of spans. The benchmark opens its own
// around every public call it makes (workload → op → assemble, partition,
// distribute, precond_build, session_setup, solve, http_submit, sse_wait);
// the library's existing obs.Collector supplies the spans inside a solve.
// Spans inside the program that do not exist yet (session set-up,
// partitioning, factorization) are therefore measured from outside only.

// span is one interval the benchmark itself opened.
type span struct {
	Name   string
	ID     int
	Parent int   // span id, -1 for a root
	Op     int   // one id per operation, -1 outside any
	Lane   int   // client index (service_mix), else 0
	Start  int64 // wall nanoseconds since the tracer epoch
	End    int64
}

// libTrace is the library's spans of one operation, kept for the trace
// file. Offset places the collector's epoch on the tracer's clock.
type libTrace struct {
	Label  string
	Op     int
	Offset int64
	Events []obs.Event
}

// maxFileEvents caps the library spans written to one trace file: a Schur
// solve records tens of thousands, and the file is for reading, not for
// the numbers (those are aggregated from every traced operation).
const maxFileEvents = 150000

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced pass: every method is a no-op.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	lib    []libTrace
	libLen int
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// newOp hands out the id that the spans of one operation share.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp - 1
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Lane: lane, Start: t.now(), End: -1})
	return id
}

// record adds a span measured before the tracer existed (assembly).
func (t *tracer) record(name string, parent int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Op: -1, Start: start, End: end})
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
}

// collector creates a library collector and returns the offset of its
// epoch on the tracer's clock (the collector keeps its epoch private; the
// two time.Now calls are back to back).
func (t *tracer) collector() (*obs.Collector, int64) {
	off := t.now()
	return obs.NewCollector(), off
}

// keep stores an operation's library spans for the trace file while the
// cap allows.
func (t *tracer) keep(label string, op int, offset int64, events []obs.Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.libLen+len(events) > maxFileEvents {
		return
	}
	t.libLen += len(events)
	t.lib = append(t.lib, libTrace{Label: label, Op: op, Offset: offset, Events: events})
}

// write emits the Chrome trace-event document cmd/tracecheck accepts.
// Process 0 holds the benchmark's own spans, one thread per lane; every
// kept operation is a further process with one thread per rank. Unlike
// the library's exporter the timeline is the wall clock; the virtual
// clock of a library span travels in its args.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := true
	emit := func(line string) {
		if !first {
			_, _ = w.WriteString(",\n") // a failed write surfaces at Flush
		}
		first = false
		_, _ = w.WriteString(line)
	}
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	_, _ = w.WriteString("{\"traceEvents\":[\n")
	emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":%s}}`,
		strconv.Quote("benchmark "+workload)))
	for _, s := range t.spans {
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"name":%s,"cat":"benchmark","ts":%s,"dur":%s,"args":{"id":%d,"parent":%d,"op":%d}}`,
			s.Lane, strconv.Quote(s.Name), us(s.Start), us(end-s.Start), s.ID, s.Parent, s.Op))
	}
	for i, lt := range t.lib {
		pid := i + 1
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			pid, strconv.Quote(fmt.Sprintf("op %d %s", lt.Op, lt.Label))))
		for _, e := range lt.Events {
			name := e.Kind
			if e.Name != "" {
				name += ":" + e.Name
			}
			start := lt.Offset + e.WStart
			if start < 0 {
				start = 0
			}
			dur := e.WEnd - e.WStart
			if dur < 0 {
				dur = 0
			}
			emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"dur":%s,"args":{"op":%d,"seq":%d,"vstart_s":%s,"vend_s":%s}}`,
				pid, e.Rank, strconv.Quote(name), strconv.Quote(e.Kind), us(start), us(dur), lt.Op, e.Seq,
				strconv.FormatFloat(e.VStart, 'g', -1, 64), strconv.FormatFloat(e.VEnd, 'g', -1, 64)))
		}
	}
	_, _ = w.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// commKinds are the span kinds that are communication or waiting for
// other ranks.
var commKinds = map[string]bool{
	obs.KindSend: true, obs.KindRecv: true, obs.KindAllReduce: true,
	obs.KindBarrier: true, obs.KindAllGather: true,
}

// opTrace is what one traced operation contributes to the per-layer
// numbers. Seconds are means over ranks, counts are totals over ranks.
type opTrace struct {
	Ranks int
	Wall  float64            // the benchmark's wall around the operation
	Incl  map[string]float64 // inclusive wall seconds per span kind
	Count map[string]int     // spans per kind
	Spans int
	// Communication nested inside precond_apply: the Schur interface
	// solve. InnerComm is its wall seconds.
	InnerSends      int
	InnerAllReduces int
	InnerComm       float64
	// Unattributed is the share of the operation's wall that no span
	// covers, averaged over ranks.
	Unattributed float64
}

// analyze derives an opTrace from the library's spans of one operation
// and checks the accounting: per rank, the self times of all spans plus
// the unattributed remainder must give the operation's wall within 1 %.
// A span's self time is its duration minus the part its children cover;
// spans of one rank come from one goroutine, so they nest properly and a
// stack ordered by begin sequence recovers the tree.
func analyze(events []obs.Event, wall float64) (opTrace, error) {
	ot := opTrace{Wall: wall, Incl: map[string]float64{}, Count: map[string]int{}}
	byRank := map[int][]obs.Event{}
	for _, e := range events {
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	ot.Ranks = len(byRank)
	if ot.Ranks == 0 || wall <= 0 {
		return ot, nil
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	type open struct {
		ev       obs.Event
		children int64
		inApply  bool
	}
	var firstErr error
	for _, r := range ranks {
		evs := byRank[r]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		var stack []open
		var selfSum, covered int64
		pop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			selfSum += (top.ev.WEnd - top.ev.WStart) - top.children
		}
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].ev.WEnd <= e.WStart {
				pop()
			}
			dur := e.WEnd - e.WStart
			inApply := false
			if len(stack) > 0 {
				stack[len(stack)-1].children += dur
				inApply = stack[len(stack)-1].inApply
			} else {
				covered += dur
			}
			sec := float64(dur) / 1e9
			ot.Incl[e.Kind] += sec
			ot.Count[e.Kind]++
			ot.Spans++
			if inApply && commKinds[e.Kind] {
				ot.InnerComm += sec
				switch e.Kind {
				case obs.KindSend:
					ot.InnerSends++
				case obs.KindAllReduce:
					ot.InnerAllReduces++
				}
			}
			stack = append(stack, open{ev: e, inApply: inApply || e.Kind == obs.KindPrecondApply})
		}
		for len(stack) > 0 {
			pop()
		}
		un := wall - float64(covered)/1e9
		if un < 0 {
			un = 0
		}
		ot.Unattributed += un / wall
		if got := float64(selfSum)/1e9 + un; firstErr == nil && (got < 0.99*wall || got > 1.01*wall) {
			firstErr = fmt.Errorf("rank %d: self times %.6fs + unattributed %.6fs ≠ wall %.6fs", r, float64(selfSum)/1e9, un, wall)
		}
	}
	n := float64(ot.Ranks)
	for k := range ot.Incl {
		ot.Incl[k] /= n
	}
	ot.InnerComm /= n
	ot.Unattributed /= n
	return ot, firstErr
}

// traceSums accumulates opTraces over the traced pass.
type traceSums struct {
	Ops             int
	Wall            float64
	Incl            map[string]float64
	Count           map[string]int
	Spans           int
	InnerSends      int
	InnerAllReduces int
	InnerComm       float64
	Unattributed    float64
}

func newTraceSums() *traceSums {
	return &traceSums{Incl: map[string]float64{}, Count: map[string]int{}}
}

func (s *traceSums) add(ot opTrace) {
	s.Ops++
	s.Wall += ot.Wall
	for k, v := range ot.Incl {
		s.Incl[k] += v
	}
	for k, v := range ot.Count {
		s.Count[k] += v
	}
	s.Spans += ot.Spans
	s.InnerSends += ot.InnerSends
	s.InnerAllReduces += ot.InnerAllReduces
	s.InnerComm += ot.InnerComm
	s.Unattributed += ot.Unattributed
}

// perOp divides a total by the number of traced operations.
func (s *traceSums) perOp(v float64) float64 {
	if s.Ops == 0 {
		return 0
	}
	return v / float64(s.Ops)
}

// share divides seconds by the traced operations' total wall.
func (s *traceSums) share(sec float64) float64 {
	if s.Wall <= 0 {
		return 0
	}
	return sec / s.Wall
}

// fill writes the span-derived timings and shares: seconds per operation
// (mean over ranks) and shares of the traced operations' wall.
func (s *traceSums) fill(m metricSet) {
	m["dsys.exchange_s"] = s.perOp(s.Incl[obs.KindExchange])
	m["dsys.spmv_s"] = s.perOp(s.Incl[obs.KindSpMV])
	m["precond.apply_s"] = s.perOp(s.Incl[obs.KindPrecondApply])
	m["precond.apply_share"] = s.share(s.Incl[obs.KindPrecondApply])
	m["krylov.orth_s"] = s.perOp(s.Incl[obs.KindOrth])
	m["dist.allreduce_s"] = s.perOp(s.Incl[obs.KindAllReduce])
	m["dist.recv_wait_s"] = s.perOp(s.Incl[obs.KindRecv])
	m["schur.inner_share"] = s.share(s.InnerComm)
	m["core.unattributed_share"] = s.perOp(s.Unattributed)
	m["obs.spans_per_op"] = s.perOp(float64(s.Spans))
}

// fillCounts writes the span counts. The receiver must hold the fixed
// prefix only, and iterations be the outer iterations of that prefix, so
// that every value repeats exactly.
func (s *traceSums) fillCounts(m metricSet, iterations int) {
	m["dsys.exchange_count"] = float64(s.Count[obs.KindExchange])
	m["precond.apply_count"] = float64(s.Count[obs.KindPrecondApply])
	m["dist.allreduce_count"] = float64(s.Count[obs.KindAllReduce])
	if iterations > 0 {
		m["schur.msgs_per_outer_iter"] = float64(s.InnerSends) / float64(iterations)
		m["schur.allreduce_per_outer_iter"] = float64(s.InnerAllReduces) / float64(iterations)
	}
}
