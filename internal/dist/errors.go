package dist

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TagMismatchError reports a receive whose next queued message carried an
// unexpected tag. On a healthy world this is a protocol bug; under an
// injected fault plan it is also the natural symptom of message loss (the
// receiver pairs up with the *next* message of the stream).
type TagMismatchError struct {
	Rank int // receiving rank
	Peer int // sending rank
	Want int
	Got  int
}

func (e *TagMismatchError) Error() string {
	return fmt.Sprintf("dist: rank %d expected tag %d from %d, got %d",
		e.Rank, e.Want, e.Peer, e.Got)
}

// PeerCrashedError reports a receive from a rank that hard-crashed (fault
// injection) with no matching message left in flight.
type PeerCrashedError struct {
	Rank int // receiving rank
	Peer int // crashed sender
	Tag  int
}

func (e *PeerCrashedError) Error() string {
	return fmt.Sprintf("dist: rank %d cannot receive tag %d from rank %d: peer crashed",
		e.Rank, e.Tag, e.Peer)
}

// RankState is one rank's diagnostic snapshot inside a DeadlockError: what
// the rank was last doing when the world stopped making progress.
type RankState struct {
	Rank    int
	LastOp  string  // "send", "recv", "allreduce", "barrier", "compute", or "" (no op yet)
	Peer    int     // peer of the last point-to-point op; -1 for collectives/compute
	Tag     int     // tag of the last point-to-point op; -1 otherwise
	Clock   float64 // virtual seconds at the last completed op
	Ops     uint64  // dist operations completed
	Blocked bool    // the rank was inside (blocked in) LastOp when sampled
	Crashed bool    // the rank hard-crashed (fault injection)
	Done    bool    // the rank function returned
}

func (s RankState) String() string {
	status := "running"
	switch {
	case s.Crashed:
		status = "CRASHED"
	case s.Done:
		status = "done"
	case s.Blocked:
		status = "BLOCKED"
	}
	op := s.LastOp
	if op == "" {
		op = "(none)"
	}
	if s.Peer >= 0 {
		op = fmt.Sprintf("%s(peer=%d, tag=%d)", op, s.Peer, s.Tag)
	}
	return fmt.Sprintf("rank %d: %s in %s after %d ops, t=%.6fs", s.Rank, status, op, s.Ops, s.Clock)
}

// DeadlockError is returned by RunOpts when no rank made progress within
// the watchdog budget: the world is stalled (a protocol deadlock, a
// dropped message someone is still waiting for, or a crashed rank holding
// up a collective). Ranks carries every rank's last-op diagnostics.
type DeadlockError struct {
	Budget time.Duration
	Ranks  []RankState
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dist: deadlock: no progress for %v across %d ranks", e.Budget, len(e.Ranks))
	for _, r := range e.Ranks {
		if r.Done {
			continue
		}
		b.WriteString("; ")
		b.WriteString(r.String())
	}
	return b.String()
}

// CrashError reports that one or more ranks hard-crashed (fault
// injection) while the surviving ranks still ran to completion.
type CrashError struct {
	Ranks []int
}

func (e *CrashError) Error() string {
	rs := append([]int(nil), e.Ranks...)
	sort.Ints(rs)
	return fmt.Sprintf("dist: ranks %v crashed", rs)
}

// RankPanicError wraps a panic that escaped a rank function under
// RunOpts, so a programming error surfaces as a typed error instead of
// killing the process (and instead of hanging every other rank).
type RankPanicError struct {
	Rank  int
	Value any
	Stack string
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("dist: rank %d panicked: %v", e.Rank, e.Value)
}

// UnknownMachineError reports a machine name MachineByName does not know;
// its message lists the names it does.
type UnknownMachineError struct {
	Name string
}

func (e *UnknownMachineError) Error() string {
	return fmt.Sprintf("dist: unknown machine %q (have %s)", e.Name, MachineNames())
}

// StatsError reports a per-rank Stats slice that does not have the shape
// every Run/RunOpts result has: nonempty, with ranks 0..len-1 in order.
// Aggregation helpers return it instead of silently producing poisoned
// timings from misassembled input.
type StatsError struct {
	Index int // offending index; -1 for an empty slice
	Got   int // rank found at Index (meaningless when Index < 0)
}

func (e *StatsError) Error() string {
	if e.Index < 0 {
		return "dist: aggregation over empty stats slice"
	}
	return fmt.Sprintf("dist: stats[%d] carries rank %d, want %d (misassembled per-rank stats)",
		e.Index, e.Got, e.Index)
}

// UnknownPlanError reports a fault-plan name that names no built-in
// chaos plan. Have lists the valid names.
type UnknownPlanError struct {
	Name string
	Have []string
}

func (e *UnknownPlanError) Error() string {
	return fmt.Sprintf("dist: unknown fault plan %q (have %v)", e.Name, e.Have)
}

// abortPanic unwinds a rank goroutine when the world has been aborted
// (watchdog deadlock, another rank's panic). It never escapes RunOpts.
type abortPanic struct{}

// crashPanic unwinds a rank goroutine at its planned hard-crash point. It
// never escapes RunOpts.
type crashPanic struct{ rank int }
