package arms

import (
	"errors"
	"testing"

	"parapre/internal/ilu"
	"parapre/internal/sparse"
)

// Regression for the singular-input path: a matrix with a structurally
// empty row must make New fail loudly instead of handing back a hierarchy
// whose last-level factorization silently floored the zero pivot. The
// empty row reaches either a dense block factorization (singular-matrix
// error) or the final ILUT (typed zero-pivot error), depending on where
// the independent-set pass places it; both must surface through New.
func TestARMSZeroRowReturnsError(t *testing.T) {
	coo := sparse.NewCOO(6, 6, 16)
	for i := 0; i < 6; i++ {
		if i == 3 {
			continue // row 3 is structurally empty
		}
		coo.Add(i, i, 4)
		if i > 0 && i != 4 {
			coo.Add(i, i-1, -1)
		}
		if i < 5 && i != 2 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	for _, maxG := range []int{1, 2, 6} {
		opt := DefaultOptions()
		opt.MaxGroup = maxG
		opt.ILUT = ilu.ILUTOptions{Tau: 0, LFil: 0}
		s, err := New(a, opt)
		if err == nil {
			t.Errorf("maxGroup=%d: zero-row matrix accepted (solver %v)", maxG, s != nil)
			continue
		}
		var zp *ilu.ZeroPivotError
		if !errors.As(err, &zp) && !errors.Is(err, ilu.ErrZeroPivot) {
			// The dense-block path reports its own singular-matrix error;
			// that is fine too, as long as it is an error.
			t.Logf("maxGroup=%d: non-typed singular error: %v", maxG, err)
		}
	}
}

// A 1×1 matrix admits no independent-set reduction (nB would equal n), so
// the hierarchy must degenerate to a single exact ILUT level.
func TestARMSOneByOne(t *testing.T) {
	coo := sparse.NewCOO(1, 1, 1)
	coo.Add(0, 0, 5)
	s, err := New(coo.ToCSR(), DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	z := make([]float64, 1)
	s.Apply(z, []float64{10}, s.NewScratch())
	if z[0] != 2 {
		t.Errorf("1×1 solve: got %g, want 2", z[0])
	}
}

// Reduce must report "no reduction" (nil, nil) rather than a degenerate
// Reduction when every unknown lands in the grouped part.
func TestReduceFullyGroupedIsNil(t *testing.T) {
	// Diagonal matrix: every vertex is independent, so with a large group
	// cap the whole matrix is grouped and nB == n.
	coo := sparse.NewCOO(4, 4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, float64(i+1))
	}
	red, err := Reduce(coo.ToCSR(), 8, 0)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if red != nil {
		t.Errorf("diagonal matrix produced a reduction with nB=%d, want nil (no reduction)", red.NB)
	}
}
