package ilu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/sparse"
)

// A matrix held in its ILU(0) factor's pattern keeps the CSR's own values
// and multiplies to the CSR's bits; a factor whose pattern is not the
// matrix's — ILUT's, with fill — is refused.
func TestHoldInPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, a := range []*sparse.CSR{tridiag(9), lap2D(7), randSPDish(rng, 40, 0.15)} {
		f, err := ILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		m, err := HoldInPattern(f, a)
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != a.NNZ() {
			t.Fatalf("held %d entries of %d", m.NNZ(), a.NNZ())
		}
		if &m.val[0] != &a.Val[0] {
			t.Fatal("the values were copied, not kept")
		}
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := make([]float64, a.Rows), a.MulVec(x)
		m.MulVecTo(got, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d: %v, the CSR's %v", i, got[i], want[i])
			}
		}
		// Split across workers, the rows are swept in segments, each
		// starting at its first row's values.
		for segs := 2; segs <= 5; segs++ {
			clear(got)
			b := m.seg.Bounds(segs, a.Rows, m.NNZ(), m.rowLen)
			for k := 0; k < segs; k++ {
				m.mulRange(got, x, b[k], b[k+1])
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d segments %v: row %d: %v, the CSR's %v", segs, b, i, got[i], want[i])
				}
			}
		}
	}

	a := lap2D(6)
	filled, err := ILUT(a, ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HoldInPattern(filled, a); !errors.Is(err, ErrBadInput) {
		t.Fatalf("an ILUT factor with fill was accepted: err = %v", err)
	}
}
