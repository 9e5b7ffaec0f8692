package krylov

import "fmt"

// State is a complete snapshot of one rank's solver recurrence at an
// iteration boundary — everything (F)GMRES or CG needs to continue the
// solve exactly where it stopped: the Krylov basis built so far, the
// Hessenberg columns with their Givens rotations, the iterate, and the
// residual history. Snapshots are produced by the Options.Checkpoint hook
// and consumed by Options.Resume; the ckpt package gives them a durable,
// versioned on-disk form.
//
// All slices are deep copies: a State never aliases live solver
// workspace, so it stays valid after the solve moves on (or dies).
type State struct {
	Method   string // "GMRES", "FGMRES" or "CG"
	N        int    // local unknowns
	M        int    // restart length m (GMRES family; 0 for CG)
	Iter     int    // total iterations completed
	Restarts int    // restart cycles begun after the first
	J        int    // next inner Arnoldi index within the current cycle

	Ref     float64 // convergence reference (initial residual norm)
	Initial float64 // Result.Initial at capture time

	// PrecondID names the preconditioner the Krylov space was built
	// with. The solver does not interpret it; the restore layer refuses
	// to resume a basis under a different preconditioner (the right-
	// preconditioned update x += M⁻¹·V·y is only meaningful for the M
	// that produced V).
	PrecondID string

	X []float64 // current iterate (start-of-cycle iterate mid-GMRES-cycle)

	// GMRES family: V holds basis vectors 0..J, Z the J preconditioned
	// vectors of the flexible variant, H the first J Hessenberg columns
	// (column-major, stride M+1), Cs/Sn the J applied rotations, G the
	// first J+1 entries of the rotated residual vector.
	V  [][]float64
	Z  [][]float64
	H  []float64
	Cs []float64
	Sn []float64
	G  []float64

	// CG recurrence.
	R  []float64
	P  []float64
	RZ float64

	History []float64 // residual history up to the snapshot (with RecordHistory)
}

// StateMismatchError reports a snapshot restored into a solver it does
// not fit: a different method, problem size, restart length, or
// preconditioner identity.
type StateMismatchError struct {
	Field string // "method", "n", "restart", "precond"
	Want  string
	Got   string
}

func (e *StateMismatchError) Error() string {
	return fmt.Sprintf("krylov: cannot resume: checkpoint %s is %q, solver wants %q",
		e.Field, e.Got, e.Want)
}

// check validates the snapshot against the solver about to consume it.
func (s *State) check(method string, n, m int) error {
	if s.Method != method {
		return &StateMismatchError{Field: "method", Want: method, Got: s.Method}
	}
	if s.N != n {
		return &StateMismatchError{Field: "n", Want: fmt.Sprint(n), Got: fmt.Sprint(s.N)}
	}
	if s.M != m {
		return &StateMismatchError{Field: "restart", Want: fmt.Sprint(m), Got: fmt.Sprint(s.M)}
	}
	return nil
}

// cloneVec is a deep copy helper for snapshot capture.
func cloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

// captureGMRES deep-copies the live (F)GMRES recurrence at the boundary
// of inner iteration j. Only the defined prefixes are captured, so two
// runs that reach the same iteration produce byte-identical snapshots
// regardless of what stale workspace memory holds.
func captureGMRES(method string, n, m, totalIters, restarts, j int, ref float64,
	res *Result, x []float64, V, Z [][]float64, H, cs, sn, g []float64) *State {
	st := &State{
		Method:   method,
		N:        n,
		M:        m,
		Iter:     totalIters,
		Restarts: restarts,
		J:        j,
		Ref:      ref,
		Initial:  res.Initial,
		X:        cloneVec(x),
		H:        cloneVec(H[:(m+1)*j]),
		Cs:       cloneVec(cs[:j]),
		Sn:       cloneVec(sn[:j]),
		G:        cloneVec(g[:j+1]),
		History:  cloneVec(res.History),
	}
	st.V = make([][]float64, j+1)
	for i := 0; i <= j; i++ {
		st.V[i] = cloneVec(V[i])
	}
	if Z != nil {
		st.Z = make([][]float64, j)
		for i := 0; i < j; i++ {
			st.Z[i] = cloneVec(Z[i])
		}
	}
	return st
}

// captureCG deep-copies the live CG recurrence at the boundary of
// iteration it.
func captureCG(n, it int, res *Result, x, r, p []float64, rz float64) *State {
	return &State{
		Method:  "CG",
		N:       n,
		Iter:    it,
		Ref:     res.Initial,
		Initial: res.Initial,
		X:       cloneVec(x),
		R:       cloneVec(r),
		P:       cloneVec(p),
		RZ:      rz,
		History: cloneVec(res.History),
	}
}
