package ilu

import (
	"errors"
	"testing"

	"parapre/internal/sparse"
)

// zeroRowMatrix builds a 4×4 matrix whose row 2 is structurally empty.
func zeroRowMatrix() *sparse.CSR {
	coo := sparse.NewCOO(4, 4, 8)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, -1)
	coo.Add(1, 1, 3)
	coo.Add(3, 3, 1)
	return coo.ToCSR()
}

// Regression: a structurally zero row used to be silently floored to the
// absolute pivotRel (1e-8), so the backward solve multiplied the
// right-hand side by 1e8 — a garbage answer with PivotFixes as the only
// hint. Every factorization must now refuse with a typed error.
func TestZeroRowReturnsTypedError(t *testing.T) {
	a := zeroRowMatrix()
	cases := []struct {
		name string
		run  func() error
	}{
		{"ILU0", func() error { _, err := ILU0(a); return err }},
		{"ILUT", func() error { _, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0}); return err }},
		{"IC0", func() error { _, err := IC0(a); return err }},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: zero row accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrZeroPivot) {
			t.Errorf("%s: error %v does not wrap ErrZeroPivot", tc.name, err)
		}
		var zp *ZeroPivotError
		if !errors.As(err, &zp) {
			t.Errorf("%s: error %v is not a *ZeroPivotError", tc.name, err)
			continue
		}
		if zp.Row != 2 {
			t.Errorf("%s: reported row %d, want 2", tc.name, zp.Row)
		}
		if zp.Method != tc.name {
			t.Errorf("%s: reported method %q", tc.name, zp.Method)
		}
	}
}

// An explicit all-zero row (stored entries, all exactly zero) is just as
// information-free as a structurally empty one.
func TestExplicitZeroRowReturnsTypedError(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 5)
	coo.Add(0, 0, 2)
	coo.Add(1, 0, 0)
	coo.Add(1, 1, 0)
	coo.Add(2, 2, 1)
	a := coo.ToCSR()
	for _, run := range []func() error{
		func() error { _, err := ILU0(a); return err },
		func() error { _, err := ILUT(a, ILUTOptions{Tau: 0}); return err },
	} {
		if err := run(); !errors.Is(err, ErrZeroPivot) {
			t.Errorf("explicit zero row: got %v, want ErrZeroPivot", err)
		}
	}
}
