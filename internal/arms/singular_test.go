package arms

import (
	"strings"
	"testing"

	"parapre/internal/sparse"
)

// Regression for the singular-input path: a matrix with a structurally
// empty row must make the reduction fail loudly instead of handing back
// group factors that silently floored the zero pivot. The empty row is an
// isolated vertex, so the independent-set pass always seeds a group of its
// own with it, whose dense factorization is singular.
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
		if red, err := reduce(a, maxG, 1e-4); err == nil {
			t.Errorf("maxGroup=%d: zero-row matrix accepted (reduction %v)", maxG, red != nil)
		} else if !strings.HasPrefix(err.Error(), "group ") {
			t.Errorf("maxGroup=%d: %v does not name the singular group", maxG, err)
		}
	}
}

// When every unknown lands in the grouped part the reduction is B alone:
// an empty S, E and F, and SolveB the exact solve of the matrix.
// checkFullyGrouped builds the n×n diagonal matrix diag(5, 6, ...) and
// checks that reduce groups all of it and that SolveB returns z = 2 for
// b = 2·diag.
func checkFullyGrouped(t *testing.T, n int) {
	t.Helper()
	coo := sparse.NewCOO(n, n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(i+5))
		b[i] = float64(2 * (i + 5))
	}
	red, err := reduce(coo.ToCSR(), 8, 0)
	if err != nil {
		t.Fatalf("n=%d: reduce: %v", n, err)
	}
	if red.NB != n || red.S.Rows != 0 || red.E.NNZ() != 0 || red.F.NNZ() != 0 {
		t.Fatalf("n=%d: NB %d, S %d rows, E %d and F %d entries; want all grouped and nothing coupled",
			n, red.NB, red.S.Rows, red.E.NNZ(), red.F.NNZ())
	}
	z := make([]float64, n)
	red.SolveB(z, b)
	for i, v := range z {
		if v != 2 {
			t.Errorf("n=%d: z[%d] = %g, want 2", n, i, v)
		}
	}
}

// A diagonal matrix is fully grouped: every vertex is independent, so with
// a large group cap the whole matrix is grouped and nB == n.
func TestReduceFullyGroupedIsNil(t *testing.T) {
	checkFullyGrouped(t, 4)
}

// A 1×1 matrix, one group of one, is the smallest fully grouped matrix.
func TestARMSOneByOne(t *testing.T) {
	checkFullyGrouped(t, 1)
}
