// Package gateway turns the repository's solver core into a long-running
// service: an HTTP/JSON front end (cmd/parapred) over a multi-tenant
// scheduler of concurrent core.Sessions. A client POSTs a problem spec —
// a named paper test case or an inline MatrixMarket system plus
// preconditioner/solver/machine configuration — receives a job ID, and
// streams the solve live over SSE: per-iteration residuals, recovery
// events, phase spans, and the final result. Jobs are cancelable
// mid-solve (the signal rides core's collective stop vote), queues apply
// per-tenant backpressure, and an optional checkpoint directory lets
// killed jobs resume on restart.
package gateway

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/mmio"
	"parapre/internal/precond"
)

// Spec is the wire form of one solve request. Exactly one of Case or
// Matrix selects the system; everything else has serviceable defaults.
type Spec struct {
	// Case names a paper test case (tc1-poisson2d … tc7-jump); Size is
	// its resolution parameter (0 = the case's scaled-down default).
	Case string `json:"case,omitempty"`
	Size int    `json:"size,omitempty"`
	// Matrix is an inline MatrixMarket coordinate matrix; RHS an optional
	// MatrixMarket array vector (defaults to A·1 for a known solution).
	Matrix string `json:"matrix,omitempty"`
	RHS    string `json:"rhs,omitempty"`

	// Procs is the simulated processor count (default 4).
	Procs int `json:"procs,omitempty"`
	// Precond is the paper notation ("Block 1", "Block 2", "Block ARMS",
	// "Block 2P", "Block IC", "Schur 1", "Schur 2", "MSLR", "None";
	// default "Block 2").
	Precond string `json:"precond,omitempty"`
	// Machine selects the modeled machine: "LinuxCluster" (default),
	// "Origin3800", or "Origin3800Unloaded".
	Machine string `json:"machine,omitempty"`

	MaxIters  int     `json:"max_iters,omitempty"`
	Restart   int     `json:"restart,omitempty"`
	Tol       float64 `json:"tol,omitempty"`
	UseCG     bool    `json:"use_cg,omitempty"`
	Resilient bool    `json:"resilient,omitempty"`
	// Overlap upgrades Block 1/2 to their overlapping variants with this
	// many extra graph layers.
	Overlap int  `json:"overlap,omitempty"`
	RCM     bool `json:"rcm,omitempty"`
	// ReturnX gathers the solution and reports the true residual.
	ReturnX bool `json:"return_x,omitempty"`

	// CheckpointEvery > 0 snapshots the recurrence every so many
	// iterations into the server's checkpoint directory, making the job
	// resumable if the server is killed mid-solve.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// StreamSpans streams every completed obs span as an SSE event
	// (verbose); by default only resilient-attempt spans stream live and
	// the per-phase breakdown arrives with the result.
	StreamSpans bool `json:"stream_spans,omitempty"`
}

var machines = map[string]func() *dist.Machine{
	"":                   dist.LinuxCluster,
	"LinuxCluster":       dist.LinuxCluster,
	"Origin3800":         dist.Origin3800,
	"Origin3800Unloaded": dist.Origin3800Unloaded,
}

// Validate normalizes the spec and reports the first problem a client
// would want a 400 for.
func (s *Spec) Validate() error {
	if (s.Case == "") == (s.Matrix == "") {
		return fmt.Errorf("gateway: exactly one of case or matrix is required")
	}
	if s.Case != "" {
		if _, err := cases.ByName(s.Case); err != nil {
			names := make([]string, 0, 7)
			for _, c := range cases.All() {
				names = append(names, c.Name)
			}
			return fmt.Errorf("gateway: unknown case %q (have %s)", s.Case, strings.Join(names, ", "))
		}
	}
	if s.Procs < 0 {
		return fmt.Errorf("gateway: procs = %d", s.Procs)
	}
	if s.Procs == 0 {
		s.Procs = 4
	}
	if s.Precond == "" {
		s.Precond = string(precond.KindBlock2)
	}
	kind, err := precond.ParseKind(s.Precond)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	s.Precond = string(kind)
	if _, ok := machines[s.Machine]; !ok {
		return fmt.Errorf("gateway: unknown machine %q", s.Machine)
	}
	if s.Size < 0 || s.MaxIters < 0 || s.Restart < 0 || s.Tol < 0 ||
		s.Overlap < 0 || s.CheckpointEvery < 0 {
		return fmt.Errorf("gateway: negative spec parameter")
	}
	return nil
}

// BuildProblem constructs the core.Problem the spec describes. Call
// Validate first.
func (s *Spec) BuildProblem() (*core.Problem, error) {
	if s.Case != "" {
		c, err := cases.ByName(s.Case)
		if err != nil {
			return nil, err
		}
		size := s.Size
		if size == 0 {
			size = c.DefaultSize
		}
		return c.Build(size), nil
	}
	a, err := mmio.ReadMatrix(strings.NewReader(s.Matrix))
	if err != nil {
		return nil, fmt.Errorf("gateway: matrix: %w", err)
	}
	var b []float64
	if s.RHS != "" {
		b, err = mmio.ReadVector(strings.NewReader(s.RHS))
		if err != nil {
			return nil, fmt.Errorf("gateway: rhs: %w", err)
		}
		if len(b) != a.Rows {
			return nil, fmt.Errorf("gateway: rhs length %d, matrix has %d rows", len(b), a.Rows)
		}
	} else {
		// b = A·1: the solve has the known solution x = 1.
		ones := make([]float64, a.Rows)
		for i := range ones {
			ones[i] = 1
		}
		b = make([]float64, a.Rows)
		a.MulVecTo(b, ones)
	}
	return &core.Problem{Name: "upload", A: a, B: b}, nil
}

// BuildConfig constructs the session configuration the spec describes.
// Call Validate first.
func (s *Spec) BuildConfig() core.Config {
	cfg := core.DefaultConfig(s.Procs, precond.Kind(s.Precond))
	cfg.Machine = machines[s.Machine]()
	if s.MaxIters > 0 {
		cfg.Solver.MaxIters = s.MaxIters
	}
	if s.Restart > 0 {
		cfg.Solver.Restart = s.Restart
	}
	if s.Tol > 0 {
		cfg.Solver.Tol = s.Tol
	}
	cfg.Solver.RecordHistory = true
	cfg.UseCG = s.UseCG
	cfg.Resilient = s.Resilient
	cfg.OverlapLevels = s.Overlap
	cfg.RCM = s.RCM
	cfg.KeepX = s.ReturnX
	return cfg
}

// SessionKey hashes the spec fields that determine the session (matrix,
// distribution, preconditioner, solver shape) — jobs with equal keys
// share one cached core.Session and amortize its setup.
func (s *Spec) SessionKey() string {
	h := sha256.New()
	// json.Marshal of the normalized spec is canonical: struct fields
	// serialize in declaration order. The per-solve knobs (checkpointing,
	// streaming) are zeroed out so they don't split the cache.
	c := *s
	c.CheckpointEvery = 0
	c.StreamSpans = false
	b, _ := json.Marshal(&c)
	_, _ = h.Write(b)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
