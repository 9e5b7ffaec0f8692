package arms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// assembleSchurCOO is the coordinate-buffer AssembleSchur this package used
// until the row-wise version replaced it, kept verbatim (with its
// dropSmall) as the oracle: the new one must return the same bits. Its
// B⁻¹ is the dense path's, one LU.Solve of a group's dense factor a
// column (denseGroupLUs); b gives the groups' extents only.
func assembleSchurCOO(c, e, f *sparse.CSR, b *sparse.BlockDiagLU, lus []*sparse.LU, dropTol float64) *sparse.CSR {
	nc := c.Rows
	coo := sparse.NewCOO(nc, nc, c.NNZ()*2)
	for i := 0; i < nc; i++ {
		cols, vals := c.Row(i)
		for k, j32 := range cols {
			j := int(j32)
			coo.Add(i, j, vals[k])
		}
	}
	// For each group g: W = B_g⁻¹ F_g (dense |g|×support), then subtract
	// E[:,g]·W.
	ft := f // F rows are the group rows already
	for g := 0; g < b.Groups(); g++ {
		lo, hi := b.Group(g)
		sz := hi - lo
		// Column support of F_g.
		support := map[int]int{}
		var supCols []int
		for r := lo; r < hi; r++ {
			cols, _ := ft.Row(r)
			for _, j32 := range cols {
				j := int(j32)
				if _, ok := support[j]; !ok {
					support[j] = len(supCols)
					supCols = append(supCols, j)
				}
			}
		}
		if len(supCols) == 0 {
			continue
		}
		// Dense W: sz × |support|, column by column via LU solves.
		rhs := make([]float64, sz)
		w := make([]float64, sz*len(supCols))
		for sc, j := range supCols {
			for i := range rhs {
				rhs[i] = 0
			}
			for r := lo; r < hi; r++ {
				cols, vals := ft.Row(r)
				for k, jj32 := range cols {
					jj := int(jj32)
					if jj == j {
						rhs[r-lo] = vals[k]
					}
				}
			}
			sol := lus[g].Solve(rhs)
			for i := 0; i < sz; i++ {
				w[i*len(supCols)+sc] = sol[i]
			}
		}
		// Subtract E[:, lo:hi]·W from S: iterate rows of E that touch the
		// group's columns.
		for i := 0; i < nc; i++ {
			cols, vals := e.Row(i)
			for k, j32 := range cols {
				j := int(j32)
				if j < lo || j >= hi {
					continue
				}
				eij := vals[k]
				row := w[(j-lo)*len(supCols) : (j-lo+1)*len(supCols)]
				for sc, jj := range supCols {
					if v := eij * row[sc]; v != 0 {
						coo.Add(i, jj, -v)
					}
				}
			}
		}
	}
	s := coo.ToCSR()
	return dropSmallCSR(s, dropTol)
}

// dropSmallCSR removes entries below tol·(mean row magnitude), keeping
// diagonals.
func dropSmallCSR(a *sparse.CSR, tol float64) *sparse.CSR {
	if tol <= 0 {
		return a
	}
	out := sparse.NewCSR(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var norm float64
		for _, v := range vals {
			norm += math.Abs(v)
		}
		if len(vals) > 0 {
			norm /= float64(len(vals))
		}
		thresh := tol * norm
		for k, j32 := range cols {
			j := int(j32)
			if j == i || math.Abs(vals[k]) > thresh {
				out.ColIdx = append(out.ColIdx, j32)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.EndRow(i)
	}
	return out
}

// denseGroupLUs factors each group of the B block bb — the extents are
// those of the envelope factor b — as a dense sparse.LU of its own: the
// group factors the envelope storage replaced, kept as the oracle of its
// bits.
func denseGroupLUs(t testing.TB, bb *sparse.CSR, b *sparse.BlockDiagLU) []*sparse.LU {
	lus := make([]*sparse.LU, b.Groups())
	for g := range lus {
		lo, hi := b.Group(g)
		d := sparse.NewDense(hi-lo, hi-lo)
		for i := lo; i < hi; i++ {
			cols, vals := bb.Row(i)
			for k, j := range cols {
				d.Set(i-lo, int(j)-lo, vals[k])
			}
		}
		lu, err := d.Factor()
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		lus[g] = lu
	}
	return lus
}

// solveBDense is SolveB through the dense group factors.
func solveBDense(b *sparse.BlockDiagLU, lus []*sparse.LU, out, in []float64) {
	for g, lu := range lus {
		lo, hi := b.Group(g)
		lu.SolveTo(out[lo:hi], in[lo:hi])
	}
}

// splitOracle rebuilds [B F; E C] by a symmetric
// permutation followed by four extractions.
func splitOracle(a *sparse.CSR, perm sparse.Perm, nB int) (b, f, e, c *sparse.CSR) {
	p := sparse.PermuteSym(a, perm)
	bIdx := make([]int, nB)
	for i := range bIdx {
		bIdx[i] = i
	}
	cIdx := make([]int, a.Rows-nB)
	for i := range cIdx {
		cIdx[i] = nB + i
	}
	return sparse.Extract(p, bIdx, bIdx), sparse.Extract(p, bIdx, cIdx),
		sparse.Extract(p, cIdx, bIdx), sparse.Extract(p, cIdx, cIdx)
}

func sameBits(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %d entries, want %d", what, len(got.ColIdx), len(want.ColIdx))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d is (%d, %x), want (%d, %x)", what, k,
				got.ColIdx[k], math.Float64bits(got.Val[k]), want.ColIdx[k], math.Float64bits(want.Val[k]))
		}
	}
}

func convDiffMatrix(t testing.TB, m int) *sparse.CSR {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Velocity:  []float64{40, -25},
		Source:    func(x []float64) float64 { return 1 },
	})
	dirichletAll(g, a, b, 1)
	return a
}

func elasticityMatrix(t testing.TB, m int) *sparse.CSR {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleElasticity(g, 1, 1.5, func(x []float64) (fx, fy float64) { return 0, -1 })
	dirichletAll(g, a, b, 2)
	return a
}

func dirichletAll(g *grid.Mesh, a *sparse.CSR, b []float64, dofs int) {
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			for d := 0; d < dofs; d++ {
				bc[dofs*n+d] = 0
			}
		}
	}
	fem.ApplyDirichlet(a, b, bc)
}

// TestAssembleSchurMatchesCOO: the row-wise assembly, and the one-pass
// block split that feeds it, return the coordinate-buffer version's bits
// on the three kinds of block the paper's cases produce.
func TestAssembleSchurMatchesCOO(t *testing.T) {
	poisson, _ := poissonMatrix(t, 33)
	mats := []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", poisson},
		{"convdiff", convDiffMatrix(t, 33)},
		{"elasticity", elasticityMatrix(t, 21)},
	}
	// Every S is built in pooled buffers that the next assembly reuses:
	// all of them are compared once more at the end, after the pool has
	// been through every other case.
	type kept struct {
		what      string
		got, want *sparse.CSR
	}
	var all []kept
	for _, m := range mats {
		for _, maxGroup := range []int{1, 5, 24} {
			for _, dropTol := range []float64{0, 1e-4} {
				group, ng := GroupIndependentSet(m.a, maxGroup)
				perm, nB, start := IndSetPerm(group, ng)
				if nB == 0 || nB == m.a.Rows {
					t.Fatalf("%s maxGroup %d: no reduction", m.name, maxGroup)
				}
				red, err := ReducePermuted(m.a, perm, start, dropTol)
				if err != nil {
					t.Fatal(err)
				}
				bb, f, e, c := splitOracle(m.a, perm, nB)
				what := func(s string) string { return m.name + " " + s }
				sameBits(t, what("F"), red.F, f)
				sameBits(t, what("E"), red.E, e)
				want := assembleSchurCOO(c, e, f, red.B, denseGroupLUs(t, bb, red.B), dropTol)
				sameBits(t, what("S"), red.S, want)
				all = append(all, kept{what("S"), red.S, want})
				sameBits(t, what("S from the oracle's blocks"), AssembleSchur(c, e, f, red.B, dropTol), want)
				if cap(red.S.ColIdx) != len(red.S.ColIdx) || cap(red.S.Val) != len(red.S.Val) ||
					cap(red.F.Val) != len(red.F.Val) || cap(red.E.Val) != len(red.E.Val) {
					t.Errorf("%s: S, E or F carries spare capacity", m.name)
				}
			}
		}
	}
	for _, k := range all {
		sameBits(t, k.what+", after the later assemblies", k.got, k.want)
	}
}

// TestAssembleSchurEmptySupportGroup: a group whose rows of F are empty
// contributes nothing, whatever E holds in its columns; a group that
// cancels an entry of C exactly leaves a stored zero, as the coordinate
// buffer did.
func TestAssembleSchurEmptySupportGroup(t *testing.T) {
	// Unknowns 0,1 form group 0 (coupled to the separator), unknown 2 is
	// group 1 with no F row entries, unknowns 3,4 are the separator.
	coo := sparse.NewCOO(5, 5, 16)
	for i := 0; i < 5; i++ {
		coo.Add(i, i, 4)
	}
	coo.Add(0, 1, -1)
	coo.Add(1, 0, -1)
	coo.Add(0, 3, -2)
	coo.Add(1, 4, -1)
	coo.Add(3, 0, -2)
	coo.Add(4, 1, -1)
	coo.Add(3, 2, -3) // E has an entry in group 1's column, F has none in its row
	coo.Add(3, 4, 0.5)
	coo.Add(4, 3, 0.5)
	a := coo.ToCSR()
	perm := sparse.IdentityPerm(5)
	start := []int32{0, 2, 3}
	for _, dropTol := range []float64{0, 1e-4, 0.9} {
		red, err := ReducePermuted(a, perm, start, dropTol)
		if err != nil {
			t.Fatal(err)
		}
		bb, f, e, c := splitOracle(a, perm, 3)
		if f.RowNNZ(2) != 0 || e.At(0, 2) == 0 {
			t.Fatal("the fixture lost its empty-support group")
		}
		sameBits(t, "S", red.S, assembleSchurCOO(c, e, f, red.B, denseGroupLUs(t, bb, red.B), dropTol))
	}
}

// BenchmarkAssembleSchur times the expanded-Schur assembly of a Poisson
// block of the size one rank of the paper's P = 4 runs holds.
func BenchmarkAssembleSchur(b *testing.B) {
	a, _ := poissonMatrix(b, 65)
	group, ng := GroupIndependentSet(a, 24)
	perm, nB, start := IndSetPerm(group, ng)
	red, err := ReducePermuted(a, perm, start, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	_, f, e, c := splitOracle(a, perm, nB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = AssembleSchur(c, e, f, red.B, 1e-4)
	}
}

var benchSink *sparse.CSR

// TestGroupSolveBitsMatchDense: the envelope factor's solves — SolveB, and
// the W_g = B_g⁻¹·F_g columns S is assembled from — have the bits of the
// dense group factors they replaced, on the three kinds of block the
// paper's cases produce at group sizes up to 1, 5 and 24, for right-hand
// sides that are dense, sparse, or hold −0.
func TestGroupSolveBitsMatchDense(t *testing.T) {
	poisson, _ := poissonMatrix(t, 33)
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(38))
	for _, m := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", poisson},
		{"convdiff", convDiffMatrix(t, 33)},
		{"elasticity", elasticityMatrix(t, 21)},
	} {
		for _, maxGroup := range []int{1, 5, 24} {
			what := fmt.Sprintf("%s maxGroup %d", m.name, maxGroup)
			red, err := reduce(m.a, maxGroup, 0)
			if err != nil {
				t.Fatal(err)
			}
			bb, f, e, c := splitOracle(m.a, red.Perm, red.NB)
			lus := denseGroupLUs(t, bb, red.B)
			for _, kind := range []string{"dense", "sparse", "negative zeros"} {
				in := make([]float64, red.NB)
				for i := range in {
					switch {
					case kind == "dense" || (kind == "sparse" && rng.Intn(5) == 0):
						in[i] = rng.NormFloat64()
					case kind == "negative zeros" && rng.Intn(2) == 0:
						in[i] = negZero
					}
				}
				got, want := make([]float64, red.NB), make([]float64, red.NB)
				red.SolveB(got, in)
				solveBDense(red.B, lus, want, in)
				sameVecBits(t, what+" SolveB of "+kind+" input", got, want)
			}
			sameBits(t, what+" S", red.S, assembleSchurCOO(c, e, f, red.B, lus, 0))
		}
	}

	// One group of three whose factor has no pivoting, L = [1; 0 1; 0 ¼ 1]
	// and U = [4 1 0; 4 0; 4]: row 1's L and U envelopes are empty, row 0's
	// U and row 2's L end short of the row. A group of one, and the
	// separator after them.
	coo := sparse.NewCOO(6, 6, 16)
	for i, v := range []float64{4, 4, 4, 2, 4, 4} {
		coo.Add(i, i, v)
	}
	coo.Add(0, 1, 1)
	coo.Add(2, 1, 1)
	for _, ij := range [][2]int{{0, 4}, {2, 5}, {3, 5}} {
		coo.Add(ij[0], ij[1], -1)
		coo.Add(ij[1], ij[0], -1)
	}
	coo.Add(4, 5, 0.5)
	coo.Add(5, 4, 0.5)
	a := coo.ToCSR()
	red, err := ReducePermuted(a, sparse.IdentityPerm(6), []int32{0, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bb, f, e, c := splitOracle(a, red.Perm, red.NB)
	lus := denseGroupLUs(t, bb, red.B)
	sameBits(t, "hand-made S", red.S, assembleSchurCOO(c, e, f, red.B, lus, 0))
	for _, in := range [][]float64{
		{1, -2, 3, 5},
		{negZero, negZero, negZero, negZero},
		{0, negZero, 1, negZero},
		{negZero, 1, negZero, 0},
	} {
		got, want := make([]float64, 4), make([]float64, 4)
		red.SolveB(got, in)
		solveBDense(red.B, lus, want, in)
		sameVecBits(t, fmt.Sprintf("hand-made SolveB of %v", in), got, want)
	}

	// The one difference, documented on sparse.BlockDiagLU: a non-finite
	// entry outside a row's envelope no longer reaches it through 0·Inf.
	// The dense solve turns the whole group into NaN; the envelope solve
	// keeps the rows that never read x_0 finite.
	in := []float64{math.Inf(1), 1, 1, 1}
	got, want := make([]float64, 4), make([]float64, 4)
	red.SolveB(got, in)
	solveBDense(red.B, lus, want, in)
	if !math.IsNaN(want[0]) || !math.IsNaN(want[1]) || !math.IsNaN(want[2]) {
		t.Fatalf("dense solve of %v = %v: the fixture no longer spreads 0·Inf", in, want)
	}
	if !math.IsInf(got[0], 1) || got[1] != 0.25 || got[2] != 0.1875 || got[3] != 0.5 {
		t.Fatalf("envelope solve of %v = %v, want [+Inf 0.25 0.1875 0.5]", in, got)
	}
}

func sameVecBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), the dense path's %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
