// Positive errtype fixture: fresh untyped errors escaping through the
// exported API of a simulated ilu package, directly, laundered through a
// local, via an unexported helper on an exported path, and via generic
// helpers (an explicit instantiation, a method of an instantiated type).
package ilu

import (
	"errors"
	"fmt"
)

// ErrSeed is a package-level sentinel: the allowed idiom, never flagged.
var ErrSeed = errors.New("ilu: seed")

// Factor is exported API: every fresh untyped error it returns crosses
// the package boundary.
func Factor(n int) error {
	if n < 0 {
		return errors.New("negative order") // WANT errtype
	}
	if n == 0 {
		return fmt.Errorf("empty system of order %d", n) // WANT errtype
	}
	err := errors.New("laundered through a local")
	if n == 1 {
		return err // WANT errtype
	}
	if n == 2 {
		return genericErr[int32](n)
	}
	var w width[uint16]
	if n == 3 {
		return w.check(n)
	}
	return helperErr(n)
}

// helperErr is unexported but reachable from Factor: still audited.
func helperErr(n int) error {
	return fmt.Errorf("helper failure %d", n) // WANT errtype
}

// genericErr is reached from Factor through an explicit instantiation,
// as internal/ilu's generic elimination is.
func genericErr[C int32 | uint16](n int) error {
	return fmt.Errorf("width %d failure %d", C(0), n) // WANT errtype
}

// width is a generic type; Factor calls a method of its instantiation.
type width[C int32 | uint16] struct{ last C }

func (w width[C]) check(n int) error {
	return errors.New("column out of range") // WANT errtype
}

// orphan is unreachable from the exported API: its fresh error never
// crosses the boundary, so it is not flagged.
func orphan() error {
	return errors.New("orphan")
}
