package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"sync"

	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/krylov"
	"parapre/internal/obs"
)

// isCanceled reports whether a solver error is the cancellation
// sentinel (possibly wrapped in rank attribution).
func isCanceled(err error) bool { return errors.Is(err, krylov.ErrCanceled) }

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"     // solver finished (converged or not)
	StateFailed   State = "failed"   // spec/setup/runtime error before a result
	StateCanceled State = "canceled" // canceled while still queued
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's ordered event stream — the unit the SSE
// endpoint ships. Type selects which optional fields are meaningful.
type Event struct {
	Type string `json:"type"` // state|residual|span|recovery|result|error
	Seq  int    `json:"seq"`

	State State `json:"state,omitempty"` // type "state"

	Iter     int     `json:"iter,omitempty"`     // type "residual"
	Residual float64 `json:"residual,omitempty"` // type "residual" (and "result")

	Span *obs.Event `json:"span,omitempty"` // type "span"

	Stage     string `json:"stage,omitempty"`   // type "recovery": ladder stage
	Attempt   int    `json:"attempt,omitempty"` // type "recovery"
	Recovered bool   `json:"recovered,omitempty"`

	Result *ResultSummary `json:"result,omitempty"` // type "result"
	Error  string         `json:"error,omitempty"`  // type "error"
}

// ResultSummary is the JSON projection of a finished solve. Every number
// in it is finite: a value the solve left NaN or infinite — a breakdown's
// residual, say — is 0, the history ends before its first such entry and a
// solution holding one is left out; Err says what went wrong.
type ResultSummary struct {
	Iterations int       `json:"iterations"`
	Restarts   int       `json:"restarts"`
	Converged  bool      `json:"converged"`
	Canceled   bool      `json:"canceled"`
	Residual   float64   `json:"residual"`
	SetupTime  float64   `json:"setup_time"`
	SolveTime  float64   `json:"solve_time"`
	Wall       float64   `json:"wall"`
	History    []float64 `json:"history,omitempty"`
	TrueRelRes float64   `json:"true_rel_res,omitempty"`
	X          []float64 `json:"x,omitempty"`
	Err        string    `json:"err,omitempty"`
	ErrRank    int       `json:"err_rank,omitempty"`

	Phases []obs.PhaseStat `json:"phases,omitempty"`

	Recovery []RecoveryStep `json:"recovery,omitempty"`
}

// RecoveryStep is the JSON projection of one resilient-ladder attempt.
type RecoveryStep struct {
	Stage      string `json:"stage"`
	Attempt    int    `json:"attempt"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
	Err        string `json:"err,omitempty"`
}

// Job is one submitted solve: its spec, lifecycle state, cancel hook,
// and an append-only event log that any number of subscribers replay
// and follow live.
type Job struct {
	ID     string
	Tenant string
	Spec   *Spec

	// Restore, when non-nil, resumes the solve from a persisted
	// checkpoint (the server's crash-recovery scan sets it).
	Restore *ckpt.Checkpoint

	mu     sync.Mutex
	state  State
	events []Event
	more   chan struct{} // closed and replaced on every append
	cancel context.CancelFunc
	result *ResultSummary
}

// NewJob creates a queued job with a fresh random ID.
func NewJob(tenant string, spec *Spec) *Job {
	var b [8]byte
	_, _ = rand.Read(b[:])
	j := &Job{
		ID:     hex.EncodeToString(b[:]),
		Tenant: tenant,
		Spec:   spec,
		state:  StateQueued,
		more:   make(chan struct{}),
	}
	j.publishLocked(Event{Type: "state", State: StateQueued})
	return j
}

// publishLocked appends an event and wakes every follower. Callers hold
// j.mu (NewJob runs before the job is shared).
func (j *Job) publishLocked(e Event) {
	e.Seq = len(j.events)
	j.events = append(j.events, e)
	close(j.more)
	j.more = make(chan struct{})
}

// Publish appends an event to the job's stream.
func (j *Job) Publish(e Event) {
	j.mu.Lock()
	j.publishLocked(e)
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Events returns the events from seq onward plus a channel that closes
// when more arrive — the follow-the-log primitive of the SSE endpoint.
func (j *Job) Events(from int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if from < len(j.events) {
		out = append(out, j.events[from:]...)
	}
	return out, j.more
}

// Finish publishes the result event and moves the job to StateDone.
func (j *Job) Finish(r *ResultSummary) {
	j.mu.Lock()
	j.result = r
	j.state = StateDone
	j.publishLocked(Event{Type: "result", Result: r, Residual: r.Residual})
	j.publishLocked(Event{Type: "state", State: StateDone})
	j.mu.Unlock()
}

// Fail publishes the error event and moves the job to StateFailed.
func (j *Job) Fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.publishLocked(Event{Type: "error", Error: err.Error()})
	j.publishLocked(Event{Type: "state", State: StateFailed})
	j.mu.Unlock()
}

// resultBytes is what the job's result holds in its solution and residual
// history: what the registry keeps of a terminal job besides a few hundred
// bytes.
func (j *Job) resultBytes() int64 {
	r := j.Result()
	if r == nil {
		return 0
	}
	return int64(8 * (cap(r.X) + cap(r.History)))
}

// Result returns the finished solve's summary (nil before StateDone).
func (j *Job) Result() *ResultSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation: a queued job is terminally canceled in
// place; a running job gets its context canceled and finishes through
// the solver's cancellation path (result carries Canceled). Returns
// false when the job is already terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.publishLocked(Event{Type: "state", State: StateCanceled})
		return true
	case j.state == StateRunning && j.cancel != nil:
		j.cancel()
		return true
	default:
		return false
	}
}

// arm installs the running job's cancel hook; it reports false (and does
// not transition) when the job was canceled while queued.
func (j *Job) arm(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.publishLocked(Event{Type: "state", State: StateRunning})
	return true
}

// summarize projects a core result into the wire form.
func summarize(res *core.Result) *ResultSummary {
	s := &ResultSummary{
		Iterations: res.Iterations,
		Restarts:   res.Restarts,
		Converged:  res.Converged,
		Residual:   finite(res.Residual),
		SetupTime:  finite(res.SetupTime),
		SolveTime:  finite(res.SolveTime),
		Wall:       finite(res.Wall),
		History:    res.History,
		TrueRelRes: finite(res.TrueRelRes),
		X:          res.X,
		ErrRank:    res.ErrRank,
		Phases:     res.PhaseBreakdown,
	}
	if i := slices.IndexFunc(s.History, notFinite); i >= 0 {
		s.History = s.History[:i]
	}
	if slices.ContainsFunc(s.X, notFinite) {
		s.X = nil
	}
	if res.Err != nil {
		s.Err = res.Err.Error()
		s.Canceled = isCanceled(res.Err)
	}
	if res.Recovery != nil {
		for _, st := range res.Recovery.Steps {
			rs := RecoveryStep{
				Stage:      st.Stage,
				Attempt:    st.Attempt,
				Iterations: st.Iterations,
				Converged:  st.Converged,
			}
			if st.Err != nil {
				rs.Err = st.Err.Error()
			}
			s.Recovery = append(s.Recovery, rs)
		}
	}
	return s
}

// notFinite reports a value JSON has no number for.
func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// finite is v, or 0 when JSON has no number for it.
func finite(v float64) float64 {
	if notFinite(v) {
		return 0
	}
	return v
}
