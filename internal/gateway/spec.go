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
	"io"
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
	// Precond is one of precond.Kinds() in any casing (default "Block 2");
	// the refusal of any other name lists them.
	Precond string `json:"precond,omitempty"`
	// Machine selects the modeled machine under any spelling
	// dist.MachineByName accepts (default "LinuxCluster").
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

// Validate normalizes the spec and reports the first problem a client
// would want a 400 for.
func (s *Spec) Validate() error {
	if (s.Case == "") == (s.Matrix == "") {
		return fmt.Errorf("gateway: exactly one of case or matrix is required")
	}
	// A zero is the default's spelling: Validate stores the default, so
	// that the two share a session and a problem.
	var c cases.Case
	if s.Case != "" {
		var err error
		if c, err = cases.ByName(s.Case); err != nil {
			names := make([]string, 0, 7)
			for _, c := range cases.All() {
				names = append(names, c.Name)
			}
			return fmt.Errorf("gateway: unknown case %q (have %s)", s.Case, strings.Join(names, ", "))
		}
		if s.Size == 0 {
			s.Size = c.DefaultSize
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
	if s.Machine == "" {
		s.Machine = dist.LinuxCluster().Name
	}
	m, err := dist.MachineByName(s.Machine)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	s.Machine = m.Name
	if s.Size < 0 || s.MaxIters < 0 || s.Restart < 0 || s.Tol < 0 ||
		s.Overlap < 0 || s.CheckpointEvery < 0 {
		return fmt.Errorf("gateway: negative spec parameter")
	}
	if s.Case != "" && c.Unknowns(s.Size) == 0 {
		return fmt.Errorf("gateway: %s cannot be built at size %d", s.Case, s.Size)
	}
	// What the solve ignores is cleared, so that it does not split the
	// session cache: CG runs no escalation ladder, overlap is read by the
	// kinds with block variants only, and RCM by those without overlap and
	// by the resilient ladder's fallback.
	if s.UseCG {
		s.Resilient = false
	}
	if !kind.HasBlockVariants() {
		s.Overlap = 0
	}
	if s.Overlap > 0 || !kind.HasBlockVariants() && !(s.Resilient && kind.Fallback().HasBlockVariants()) {
		s.RCM = false
	}
	def := core.DefaultConfig(s.Procs, kind).Solver
	if s.MaxIters == 0 {
		s.MaxIters = def.MaxIters
	}
	if s.Restart == 0 {
		s.Restart = def.Restart
	}
	if s.Tol == 0 {
		s.Tol = def.Tol
	}
	return nil
}

// admitBytesPerUnknown is what admission takes a session to cost per
// unknown — an order of magnitude, not a bound: what sessions on the seven
// cases hold per unknown, by kind, is in DESIGN §18 with the command that
// measures it. It keeps out what could never be served; what it lets
// through and still outgrows the budget is served and not kept, the
// cache's own rule.
const admitBytesPerUnknown = 1 << 10

// admit refuses, from the spec's size alone and before anything is
// allocated for it, a system whose session would not fit the session
// budget, an upload whose size line contradicts its length, and more
// processors than unknowns. Call Validate first.
func (s *Spec) admit(budget int64) error {
	var unknowns int
	if s.Case != "" {
		c, err := cases.ByName(s.Case)
		if err != nil {
			return err
		}
		unknowns = c.Unknowns(s.Size)
	} else {
		rows, cols, nnz, err := mmio.MatrixSize(strings.NewReader(s.Matrix))
		if err != nil {
			return fmt.Errorf("gateway: matrix: %w", err)
		}
		if rows != cols {
			return fmt.Errorf("gateway: matrix is %d×%d, want square", rows, cols)
		}
		if nnz > len(s.Matrix)/4 { // "1 1\n": no entry takes fewer bytes
			return fmt.Errorf("gateway: matrix declares %d entries in %d bytes", nnz, len(s.Matrix))
		}
		unknowns = rows
	}
	if int64(unknowns) > budget/admitBytesPerUnknown {
		return fmt.Errorf("gateway: %d unknowns at %d bytes each exceed the session budget of %d bytes",
			unknowns, admitBytesPerUnknown, budget)
	}
	if s.Procs > unknowns {
		return fmt.Errorf("gateway: procs = %d for %d unknowns", s.Procs, unknowns)
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
		return c.Build(s.Size), nil
	}
	var rhs io.Reader
	if s.RHS != "" {
		rhs = strings.NewReader(s.RHS)
	}
	a, b, err := mmio.ReadSystem(strings.NewReader(s.Matrix), rhs)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return &core.Problem{Name: "upload", A: a, B: b}, nil
}

// BuildConfig constructs the session configuration the spec describes.
// Call Validate first.
func (s *Spec) BuildConfig() core.Config {
	cfg := core.DefaultConfig(s.Procs, precond.Kind(s.Precond))
	if m, err := dist.MachineByName(s.Machine); err == nil { // Validate's name; unset keeps the default's
		cfg.Machine = m
	}
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

// build is what a cache miss costs: assembly (or parsing the upload), unless
// a cached session already holds the problem, and session setup —
// partitioning and distribution unless the problem's memo holds them for
// this P, factorization — the part a service must amortize, and the whole
// point of core.Session. Call Validate first.
func (s *Spec) build() build {
	return build{
		problemKey: s.problemKey(),
		problem:    s.BuildProblem,
		session: func(p *core.Problem) (*core.Session, error) {
			return core.NewSession(p, s.BuildConfig())
		},
	}
}

// SessionKey hashes the spec fields that determine the session (matrix,
// distribution, preconditioner, solver shape) — jobs with equal keys
// share one cached core.Session and amortize its setup.
func (s *Spec) SessionKey() string {
	// The per-solve knobs (checkpointing, streaming) are zeroed out so they
	// don't split the cache.
	c := *s
	c.CheckpointEvery = 0
	c.StreamSpans = false
	return digest(&c)
}

// problemKey hashes what BuildProblem reads — a case and its size, or an
// upload's matrix and right-hand side — so that sessions whose specs differ
// only in how the system is solved share one core.Problem.
func (s *Spec) problemKey() string {
	return digest(&Spec{Case: s.Case, Size: s.Size, Matrix: s.Matrix, RHS: s.RHS})
}

// digest hashes a normalized spec. json.Marshal of it is canonical: struct
// fields serialize in declaration order.
func digest(s *Spec) string {
	b, _ := json.Marshal(s)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}
