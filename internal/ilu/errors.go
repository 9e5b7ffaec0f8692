package ilu

import (
	"errors"
	"fmt"
)

// ErrZeroPivot is the sentinel all structural-singularity errors wrap.
// Callers test for it with errors.Is(err, ilu.ErrZeroPivot), mirroring the
// krylov.ErrBreakdown convention.
//
// It is returned when a factorization encounters a row that carries no
// numerical information at all (structurally empty, or every stored entry
// exactly zero): no drop tolerance or pivot repair can make the resulting
// U nonsingular, so silently flooring the pivot — the old behavior — would
// hand the solver a factor whose application amplifies the right-hand side
// by 1/pivotRel. Small-but-nonzero pivots are still repaired relative to
// the row norm and counted in PivotFixes/Fixes; only the truly
// information-free case is an error.
var ErrZeroPivot = errors.New("ilu: zero pivot")

// ZeroPivotError identifies the factorization and row where a structurally
// singular pivot was detected. It wraps ErrZeroPivot.
type ZeroPivotError struct {
	Method string // "ILU0", "ILUT" or "IC0"
	Row    int    // row index in the matrix being factored
}

func (e *ZeroPivotError) Error() string {
	return fmt.Sprintf("ilu: %s: row %d is structurally zero, factorization singular", e.Method, e.Row)
}

// Unwrap makes errors.Is(e, ErrZeroPivot) true.
func (e *ZeroPivotError) Unwrap() error { return ErrZeroPivot }

// zeroPivotErr builds the factorization-side singularity record.
func zeroPivotErr(method string, row int) *ZeroPivotError {
	return &ZeroPivotError{Method: method, Row: row}
}

// NotSPDError reports an incomplete Cholesky factorization that met a
// non-positive pivot: the matrix is not symmetric positive definite, or
// not one IC(0) can factor stably. Row is the first pivot that had to be
// repaired, Fixes how many were. A factor that needed a repair would not
// precondition CG, so Block IC refuses it at set-up (Chol.Repaired).
type NotSPDError struct {
	Method string // "IC0"
	Row    int    // first repaired row
	Fixes  int    // repaired pivots in all
}

func (e *NotSPDError) Error() string {
	return fmt.Sprintf("ilu: %s: pivot of row %d is not positive (%d repaired): the matrix is not positive definite",
		e.Method, e.Row, e.Fixes)
}

// ErrBadInput is the sentinel all input-validation errors wrap. Callers
// test for it with errors.Is(err, ilu.ErrBadInput).
var ErrBadInput = errors.New("ilu: bad input")

// InputError reports a structurally invalid input to a factorization or
// sub-factorization extraction: a non-square matrix, a row missing its
// diagonal entry, an out-of-range split point. It wraps ErrBadInput.
type InputError struct {
	Op     string // "ILU0", "ILUT", "IC0", "ExtractTrailing", "ExtractLeading"
	Detail string
}

func (e *InputError) Error() string { return fmt.Sprintf("ilu: %s: %s", e.Op, e.Detail) }

// Unwrap makes errors.Is(e, ErrBadInput) true.
func (e *InputError) Unwrap() error { return ErrBadInput }

// badInputErr builds an input-validation error.
func badInputErr(op, format string, args ...any) *InputError {
	return &InputError{Op: op, Detail: fmt.Sprintf(format, args...)}
}
