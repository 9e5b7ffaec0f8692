package precond_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/par"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), the copy's %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomVec has the entries the kernels meet — signed values and zeros of
// both signs, the −0 the products must leave alone.
func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

type mulVec interface {
	MulVecTo(y, x []float64)
	MulVecAdd(y []float64, alpha float64, x []float64)
	MulVecSub(y, x []float64)
}

// checkProducts compares the three products of got and want on random
// vectors, bit for bit.
func checkProducts(t *testing.T, what string, rng *rand.Rand, rows, cols int, got, want mulVec) {
	t.Helper()
	x := randomVec(rng, cols)
	y0 := randomVec(rng, rows)
	yg, yw := make([]float64, rows), make([]float64, rows)
	got.MulVecTo(yg, x)
	want.MulVecTo(yw, x)
	sameBits(t, what+" MulVecTo", yg, yw)
	for _, alpha := range []float64{1, -0.75, rng.NormFloat64()} {
		copy(yg, y0)
		copy(yw, y0)
		got.MulVecAdd(yg, alpha, x)
		want.MulVecAdd(yw, alpha, x)
		sameBits(t, what+" MulVecAdd", yg, yw)
	}
	copy(yg, y0)
	copy(yw, y0)
	got.MulVecSub(yg, x)
	want.MulVecSub(yw, x)
	sameBits(t, what+" MulVecSub", yg, yw)
}

// The matrices the Schur preconditioners keep once, and the copies they
// kept before, multiply to the same bits on every paper case at every P
// the tables use: each part Schur 1 reads in place from the subdomain
// matrix (B, F, E, C, E_ext) against its extracted copy — which for tc6's
// 2×2-tiled blocks routes through the blocked twin — and Schur 2's
// expanded Schur block, held in its ILU(0) factor's pattern, against the
// same block assembled as a CSR. The inputs include ranks without internal
// unknowns (tc1 at 9², P = 8) and the P = 1 rank without interface. All of
// it runs at one worker and at four, where the parts and blocks with
// sparse.ParMinNNZ entries split their rows across the workers.
func TestInPlaceStorageMatchesCopies(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer par.SetWorkers(par.SetWorkers(workers))
			checkInPlaceStorage(t, workers > 1)
		})
	}
}

func checkInPlaceStorage(t *testing.T, split bool) {
	rng := rand.New(rand.NewSource(28))
	var sawNoInt, sawNoIface, sawBlocked, sawPattern, sawSplitWindow, sawSplitS bool
	for _, pr := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 9}, {"tc1-poisson2d", 33}, {"tc2-poisson3d", 9}, {"tc5-convdiff", 33}, {"tc6-elasticity", 33}} {
		c, err := cases.ByName(pr.name)
		if err != nil {
			t.Fatal(err)
		}
		prob := c.Build(pr.size)
		for _, p := range []int{1, 2, 4, 8} {
			part, err := core.Partition(prob, core.DefaultConfig(p, precond.KindSchur1))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range dsys.Distribute(prob.A, prob.B, part, p) {
				sawNoInt = sawNoInt || s.NInt == 0
				sawNoIface = sawNoIface || (p == 1 && s.NIface() == 0)
				for _, part := range []struct {
					name string
					part dsys.Part
				}{{"B", dsys.PartB}, {"F", dsys.PartF}, {"E", dsys.PartE}, {"C", dsys.PartC}, {"E_ext", dsys.PartEExt}} {
					w := s.Window(part.part)
					cp := w.CSR()
					what := pr.name + " " + part.name
					if w.NNZ() != cp.NNZ() || w.Rows != cp.Rows || w.Cols != cp.Cols {
						t.Fatalf("%s at P = %d: window %d×%d with %d entries, copy %d×%d with %d",
							what, p, w.Rows, w.Cols, w.NNZ(), cp.Rows, cp.Cols, cp.NNZ())
					}
					sawBlocked = sawBlocked || cp.AutoBlocked() != nil
					sawSplitWindow = sawSplitWindow || w.NNZ() >= sparse.ParMinNNZ
					checkProducts(t, what, rng, w.Rows, w.Cols, w, cp)
				}

				pc, err := precond.NewSchur2(s, precond.DefaultSchur2())
				if err != nil {
					t.Fatalf("%s at P = %d: %v", pr.name, p, err)
				}
				ref, err := precond.ExpandedSchurCSR(s, precond.DefaultSchur2())
				if err != nil {
					t.Fatal(err)
				}
				held, ok := pc.LocalSchur().(*ilu.PatternMatrix)
				if !ok {
					t.Fatalf("%s at P = %d rank %d: S is held as %T, want its ILU(0) pattern", pr.name, p, s.Rank, pc.LocalSchur())
				}
				sawPattern = true
				sawSplitS = sawSplitS || held.NNZ() >= sparse.ParMinNNZ
				if held.NNZ() != ref.NNZ() {
					t.Fatalf("%s at P = %d: S held with %d entries, assembled with %d", pr.name, p, held.NNZ(), ref.NNZ())
				}
				x := randomVec(rng, ref.Cols)
				yg, yw := make([]float64, ref.Rows), make([]float64, ref.Rows)
				held.MulVecTo(yg, x)
				ref.MulVecTo(yw, x)
				sameBits(t, pr.name+" S", yg, yw)
			}
		}
	}
	for what, saw := range map[string]bool{
		"a rank without internal unknowns":       sawNoInt,
		"the P = 1 rank without interface":       sawNoIface,
		"a copy routed through its blocked twin": sawBlocked,
		"S held in its factor's pattern":         sawPattern,
		"a part large enough to split":           sawSplitWindow || !split,
		"a held S large enough to split":         sawSplitS || !split,
	} {
		if !saw {
			t.Errorf("the inputs never had %s", what)
		}
	}
}

// When ILU(0) of the expanded Schur block fails — here a subdomain whose
// block misses a diagonal entry — Schur 2 factors it by ILUT and keeps S
// as the CSR it was assembled as; the rank next to it, whose block has its
// diagonal, holds S in the ILU(0) pattern.
func TestSchur2ILUTFallbackKeepsCSR(t *testing.T) {
	// Every unknown couples across the two subdomains, so both are all
	// interface and the expanded Schur block is the owned block itself.
	coo := sparse.NewCOO(4, 4, 12)
	for _, e := range []struct {
		i, j int
		v    float64
	}{
		{0, 1, 1}, {0, 2, 1}, // row 0 has no diagonal entry
		{1, 0, 1}, {1, 1, 4}, {1, 3, 1},
		{2, 0, 1}, {2, 2, 4}, {2, 3, 1},
		{3, 1, 1}, {3, 2, 1}, {3, 3, 4},
	} {
		coo.Add(e.i, e.j, e.v)
	}
	systems := dsys.Distribute(coo.ToCSR(), make([]float64, 4), []int{0, 0, 1, 1}, 2)
	for r, wantCSR := range []bool{true, false} {
		s := systems[r]
		if s.NInt != 0 {
			t.Fatalf("rank %d has %d internal unknowns, want 0", r, s.NInt)
		}
		pc, err := precond.NewSchur2(s, precond.DefaultSchur2())
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		switch held := pc.LocalSchur().(type) {
		case *sparse.CSR:
			if !wantCSR {
				t.Errorf("rank %d: S kept as a CSR, want its ILU(0) pattern", r)
			} else if !held.Equal(s.OwnedBlock()) {
				t.Errorf("rank %d: the CSR kept is not the expanded Schur block", r)
			}
		case *ilu.PatternMatrix:
			if wantCSR {
				t.Errorf("rank %d: S held in an ILU(0) pattern, but ILU(0) cannot factor it", r)
			}
		default:
			t.Errorf("rank %d: S held as %T", r, held)
		}
	}
}
