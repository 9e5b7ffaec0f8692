package arms

import (
	"math"
	"testing"

	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// assembleSchurCOO is the coordinate-buffer AssembleSchur this package used
// until the row-wise version replaced it, kept verbatim (with its
// dropSmall) as the oracle: the new one must return the same bits.
func assembleSchurCOO(c, e, f *sparse.CSR, l *Reduction, dropTol float64) *sparse.CSR {
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
	for g, ext := range l.Blocks {
		lo, hi := ext[0], ext[1]
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
			sol := l.BlockLU[g].Solve(rhs)
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

// splitOracle rebuilds [B F; E C] the way Reduce used to: a symmetric
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
				perm, nB, blocks := IndSetPerm(group, ng)
				if nB == 0 || nB == m.a.Rows {
					t.Fatalf("%s maxGroup %d: no reduction", m.name, maxGroup)
				}
				red, err := ReducePermuted(m.a, perm, nB, blocks, dropTol)
				if err != nil {
					t.Fatal(err)
				}
				_, f, e, c := splitOracle(m.a, perm, nB)
				what := func(s string) string { return m.name + " " + s }
				sameBits(t, what("F"), red.F, f)
				sameBits(t, what("E"), red.E, e)
				want := assembleSchurCOO(c, e, f, red, dropTol)
				sameBits(t, what("S"), red.S, want)
				all = append(all, kept{what("S"), red.S, want})
				sameBits(t, what("S from the oracle's blocks"), AssembleSchur(c, e, f, red, dropTol), want)
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
	blocks := [][2]int{{0, 2}, {2, 3}}
	for _, dropTol := range []float64{0, 1e-4, 0.9} {
		red, err := ReducePermuted(a, perm, 3, blocks, dropTol)
		if err != nil {
			t.Fatal(err)
		}
		_, f, e, c := splitOracle(a, perm, 3)
		if f.RowNNZ(2) != 0 || e.At(0, 2) == 0 {
			t.Fatal("the fixture lost its empty-support group")
		}
		sameBits(t, "S", red.S, assembleSchurCOO(c, e, f, red, dropTol))
	}
}

// BenchmarkAssembleSchur times the expanded-Schur assembly of a Poisson
// block of the size one rank of the paper's P = 4 runs holds.
func BenchmarkAssembleSchur(b *testing.B) {
	a, _ := poissonMatrix(b, 65)
	group, ng := GroupIndependentSet(a, 24)
	perm, nB, blocks := IndSetPerm(group, ng)
	red, err := ReducePermuted(a, perm, nB, blocks, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	_, f, e, c := splitOracle(a, perm, nB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = AssembleSchur(c, e, f, red, 1e-4)
	}
}

var benchSink *sparse.CSR
