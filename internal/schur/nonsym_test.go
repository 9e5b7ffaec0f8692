package schur

import (
	"math"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/sparse"
)

// Regression: building the implicit Schur operator on a structurally
// unsymmetric matrix used to fail in buildSendMap ("requests local N,
// which is not an interface unknown") because dsys classified interface
// nodes from outgoing edges only. With the symmetrized classification the
// operator must build and its distributed MatVec must reproduce the dense
// global Schur complement.
func TestImplicitOperatorNonsymmetricPattern(t *testing.T) {
	n := 6
	coo := sparse.NewCOO(n, n, 20)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	coo.Add(0, 1, -1)
	coo.Add(1, 0, -1)
	coo.Add(2, 3, -1) // one-way cross edge rank0 → rank1
	coo.Add(4, 5, -1)
	coo.Add(5, 4, -1)
	coo.Add(1, 2, -1)
	coo.Add(2, 1, -1)
	coo.Add(4, 3, -1)
	coo.Add(3, 4, -1)
	a := coo.ToCSR()
	b := make([]float64, n)
	part := []int{0, 0, 0, 1, 1, 1}
	systems := dsys.Distribute(a, b, part, 2)

	ops := make([]*Iface, 2)
	for r, s := range systems {
		bf, err := ilu.ILUT(s.Window(dsys.PartB).CSR(), ilu.ILUTOptions{Tau: 0, LFil: 0})
		if err != nil {
			t.Fatalf("rank %d: factor B: %v", r, err)
		}
		op, err := NewImplicit(s, bf)
		if err != nil {
			t.Fatalf("rank %d: NewImplicit: %v", r, err)
		}
		ops[r] = op
	}

	// Global interface ordering: rank-by-rank owned interface unknowns.
	var ifaceGlobals []int
	for _, s := range systems {
		for _, g := range s.GlobalIDs[s.NInt:] {
			ifaceGlobals = append(ifaceGlobals, int(g))
		}
	}
	nI := len(ifaceGlobals)
	if nI == 0 {
		t.Fatal("no interface unknowns")
	}

	// Dense global Schur complement in the same ordering.
	sd := denseSchur(t, a, ifaceGlobals)

	// Apply the distributed operator to each unit vector and compare.
	x := make([]float64, nI)
	for col := 0; col < nI; col++ {
		for i := range x {
			x[i] = 0
		}
		x[col] = 1
		y := make([]float64, nI)
		dist.Run(2, dist.LinuxCluster(), func(c *dist.Comm) {
			r := c.Rank()
			off := 0
			for q := 0; q < r; q++ {
				off += ops[q].N()
			}
			xl := x[off : off+ops[r].N()]
			yl := make([]float64, ops[r].N())
			if err := ops[r].MatVec(c, ops[r].NewWork(), yl, xl); err != nil {
				t.Errorf("rank %d MatVec: %v", r, err)
				return
			}
			copy(y[off:], yl)
		})
		for i := 0; i < nI; i++ {
			if d := math.Abs(y[i] - sd.At(i, col)); d > 1e-10 {
				t.Fatalf("S[%d,%d]: operator %g, dense %g", i, col, y[i], sd.At(i, col))
			}
		}
	}
}

// denseSchur assembles C − E·B⁻¹·F for the global matrix with the given
// interface unknowns ordered last.
func denseSchur(t *testing.T, a *sparse.CSR, ifaceGlobals []int) *sparse.Dense {
	t.Helper()
	n := a.Rows
	isI := make([]bool, n)
	for _, g := range ifaceGlobals {
		isI[g] = true
	}
	var internals []int
	for i := 0; i < n; i++ {
		if !isI[i] {
			internals = append(internals, i)
		}
	}
	nB := len(internals)
	nI := len(ifaceGlobals)
	ad := a.Dense()
	bb := sparse.NewDense(nB, nB)
	for i, gi := range internals {
		for j, gj := range internals {
			bb.Set(i, j, ad.At(gi, gj))
		}
	}
	lu, err := bb.Factor()
	if err != nil {
		t.Fatalf("dense B factor: %v", err)
	}
	s := sparse.NewDense(nI, nI)
	col := make([]float64, nB)
	for j, gj := range ifaceGlobals {
		for i, gi := range internals {
			col[i] = ad.At(gi, gj) // F column j
		}
		x := lu.Solve(col)
		for i, gi := range ifaceGlobals {
			v := ad.At(gi, gj) // C entry
			for q, gq := range internals {
				v -= ad.At(gi, gq) * x[q]
			}
			s.Set(i, j, v)
		}
	}
	return s
}
