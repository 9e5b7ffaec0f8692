package krylov

import (
	"errors"
	"fmt"
	"math"
)

// ErrBreakdown is the sentinel all solver breakdown errors wrap. Callers
// test for it with errors.Is(res.Err, krylov.ErrBreakdown).
var ErrBreakdown = errors.New("krylov: breakdown")

// ErrCanceled is the sentinel a cooperatively stopped solve wraps: the
// caller's Options.Stop returned true at an iteration boundary and the
// solver returned with its current (uncontaminated) iterate. Callers test
// for it with errors.Is(res.Err, krylov.ErrCanceled).
var ErrCanceled = errors.New("krylov: canceled")

// CanceledError records where a solve was cooperatively stopped. It wraps
// ErrCanceled. Unlike a breakdown, a canceled solve's iterate is the last
// completed restart's (GMRES) or iteration's (CG) — valid, just not
// converged.
type CanceledError struct {
	Method    string // "GMRES", "FGMRES" or "CG"
	Iteration int    // matrix-vector products performed when stopped
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("krylov: %s canceled at iteration %d", e.Method, e.Iteration)
}

// Unwrap makes errors.Is(e, ErrCanceled) true.
func (e *CanceledError) Unwrap() error { return ErrCanceled }

// canceledErr builds the solver-side cancellation record.
func canceledErr(method string, iter int) *CanceledError {
	return &CanceledError{Method: method, Iteration: iter}
}

// BreakdownError describes where and why an iteration broke down: a
// Givens rotation annihilated to zero (Krylov space exhausted), an inner
// product or norm went NaN/Inf (poisoned operator, singular
// preconditioner), or CG met a non-positive curvature direction. It wraps
// ErrBreakdown.
type BreakdownError struct {
	Method    string  // "GMRES", "FGMRES" or "CG"
	Iteration int     // matrix-vector products performed when detected
	Quantity  string  // the scalar that triggered detection
	Value     float64 // its offending value
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("krylov: %s breakdown at iteration %d: %s = %v",
		e.Method, e.Iteration, e.Quantity, e.Value)
}

// Unwrap makes errors.Is(e, ErrBreakdown) true.
func (e *BreakdownError) Unwrap() error { return ErrBreakdown }

// breakdownErr builds the solver-side breakdown record.
func breakdownErr(method string, iter int, quantity string, value float64) *BreakdownError {
	return &BreakdownError{Method: method, Iteration: iter, Quantity: quantity, Value: value}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
