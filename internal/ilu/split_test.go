package ilu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// combinedOf rebuilds the layout LU had before the split: both triangles
// and the pivots in one row-sorted CSR, diag[i] indexing row i's pivot.
// The tests that walk a factor entry by entry, and the reference sweeps
// below, read this form.
func combinedOf(f *LU) (*sparse.CSR, []int) {
	n := f.N()
	m := sparse.NewCSR(n, n, f.NNZ())
	diag := make([]int, n)
	for i := 0; i < n; i++ {
		cols, vals := f.LRow(i)
		for k, j := range cols {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, vals[k])
		}
		diag[i] = len(m.ColIdx)
		m.ColIdx = append(m.ColIdx, int32(i))
		m.Val = append(m.Val, f.Pivot(i))
		cols, vals = f.URow(i)
		for k, j := range cols {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, vals[k])
		}
		m.EndRow(i)
	}
	return m, diag
}

// solveCombinedRef is the pair of serial sweeps LU.Solve ran on the
// combined layout, kept verbatim as the bit-identity oracle of the split
// kernels: x = U⁻¹·L⁻¹·b, x and b may alias.
func solveCombinedRef(m *sparse.CSR, diag []int, x, b []float64) {
	n := m.Rows
	rp, ci, vv := m.RowPtr, m.ColIdx, m.Val
	for i := 0; i < n; i++ {
		s := b[i]
		d := diag[i]
		row := vv[rp[i]:d]
		cols := ci[rp[i]:d]
		for k, v := range row {
			s -= v * x[cols[k]]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		s := x[i]
		row := vv[d+1 : rp[i+1]]
		cols := ci[d+1 : rp[i+1]]
		for k, v := range row {
			s -= v * x[cols[k]]
		}
		x[i] = s / vv[d]
	}
}

// convDiff assembles the SUPG convection–diffusion operator of test case
// 5 (unsymmetric) with u = 0 on the whole boundary.
func convDiff(size int) *sparse.CSR {
	g := grid.UnitSquareTri(size)
	v := 1000.0
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Velocity:  []float64{v * math.Cos(math.Pi/4), v * math.Sin(math.Pi/4)},
		SUPG:      true,
	})
	bc := map[int]float64{}
	for n, on := range g.BoundaryNodes() {
		if on {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return a
}

// elasticity assembles the quarter-ring operator of test case 6: two
// unknowns per node, one displacement component fixed on each straight
// edge.
func elasticity(size int) *sparse.CSR {
	g := grid.QuarterRing(size, size)
	a, b := fem.AssembleElasticity(g, 1.0, 1.5,
		func(x []float64) (float64, float64) { return 0, -1 })
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		if math.Abs(c[0]) < 1e-12 {
			bc[2*n] = 0
		}
		if math.Abs(c[1]) < 1e-12 {
			bc[2*n+1] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	return a
}

// oneSided builds matrices whose factors have rows with an empty L part
// or an empty U part: upper triangular (L empty everywhere), lower
// triangular (U empty everywhere), diagonal (both), and an arrow whose
// interior rows have neither and whose last row and column have all.
func oneSided(kind string, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+float64(i%3))
		switch kind {
		case "upper":
			for j := i + 1; j < n && j < i+3; j++ {
				coo.Add(i, j, -1/float64(j-i+1))
			}
		case "lower":
			for j := i - 2; j < i; j++ {
				if j >= 0 {
					coo.Add(i, j, -1/float64(i-j+1))
				}
			}
		case "arrow":
			if i < n-1 {
				coo.Add(i, n-1, -0.5)
				coo.Add(n-1, i, -0.25)
			}
		}
	}
	return coo.ToCSR()
}

// splitFactors returns every way this package produces an LU from a: the
// three factorizations and the two sub-factor extractions.
func splitFactors(t testing.TB, a *sparse.CSR) map[string]*LU {
	t.Helper()
	out := map[string]*LU{}
	f0, err := ILU0(a)
	if err != nil {
		t.Fatalf("ILU0: %v", err)
	}
	out["ILU0"] = f0
	ft, err := ILUT(a, DefaultILUT())
	if err != nil {
		t.Fatalf("ILUT: %v", err)
	}
	out["ILUT"] = ft
	fp, err := ILUTP(a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 0.5})
	if err != nil {
		t.Fatalf("ILUTP: %v", err)
	}
	out["ILUTP"] = fp.LU
	cut := 2 * a.Rows / 3
	lead, err := ExtractLeading(ft, cut)
	if err != nil {
		t.Fatalf("ExtractLeading: %v", err)
	}
	out["ExtractLeading"] = lead
	trail, err := ExtractTrailing(ft, cut)
	if err != nil {
		t.Fatalf("ExtractTrailing: %v", err)
	}
	out["ExtractTrailing"] = trail
	return out
}

// checkSplitBits solves with f and demands the bits of the combined-layout
// reference sweeps, for a separate and for an aliased output. (Solve reads
// no worker count, so there is none to vary.)
func checkSplitBits(t testing.TB, tag string, f *LU, b []float64) {
	t.Helper()
	n := f.N()
	m, diag := combinedOf(f)
	want := make([]float64, n)
	solveCombinedRef(m, diag, want, b)
	got := make([]float64, n)
	alias := make([]float64, n)
	copy(alias, b)
	f.Solve(got, b)
	f.Solve(alias, alias)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x, combined sweeps give %x", tag, i, got[i], want[i])
		}
		if math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: aliased x[%d] = %x, combined sweeps give %x", tag, i, alias[i], want[i])
		}
	}
}

// TestSplitSolveBitsMatchCombined is the bit-identity contract of the
// split layout: per row the same entries are subtracted in the same
// order and the pivot divide is unchanged, so every factor this package
// can produce solves to the bits of the sweeps over the combined CSR.
func TestSplitSolveBitsMatchCombined(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplacian2d": lap2D(24),
		"convdiff":    convDiff(17),
		"elasticity":  elasticity(9),
		"tridiagonal": tridiag(300),
		"upper":       oneSided("upper", 40),
		"lower":       oneSided("lower", 40),
		"diagonal":    oneSided("diagonal", 40),
		"arrow":       oneSided("arrow", 40),
		"n=1":         tridiag(1),
		"n=0":         sparse.NewCSR(0, 0, 0),
	}
	rng := rand.New(rand.NewSource(15))
	for name, a := range mats {
		for kind, f := range splitFactors(t, a) {
			b := make([]float64, f.N())
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			checkSplitBits(t, name+"/"+kind, f, b)
		}
	}
}

// FuzzLUSolveSplit decodes an order, a sparsity pattern with its values
// and a right-hand side from the input and runs the bit-identity check on
// every factor kind. Byte 0 is the order; each later byte is one entry of
// the matrix in row-major order (absent when divisible by 3) and, read
// again with a different scale, one entry of the right-hand side.
func FuzzLUSolveSplit(f *testing.F) {
	f.Add([]byte{5, 200, 7, 0, 91, 13, 250, 44, 8, 3, 129, 77})
	f.Add([]byte{1, 9})
	f.Add([]byte{12, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 23, 25, 26})
	f.Add([]byte{23, 255, 254, 253, 0, 0, 0, 128, 127, 126})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 600 {
			return
		}
		n := 1 + int(data[0]%24)
		body := data[1:]
		coo := sparse.NewCOO(n, n, n*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, float64(2*n)+float64(body[i%len(body)]%8))
			for j := 0; j < n; j++ {
				v := body[(i*n+j)%len(body)]
				if j != i && v%3 != 0 {
					coo.Add(i, j, (float64(v)-128)/64)
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = (float64(body[(7*i+3)%len(body)]) - 100) / 8
		}
		a := coo.ToCSR()
		for kind, lu := range splitFactors(t, a) {
			checkSplitBits(t, kind, lu, b[:lu.N()])
		}
	})
}

// TestLUFootprint pins what an LU holds: 12 bytes per off-diagonal entry
// (a 32-bit column and a value), 16 per row (two 32-bit row pointers and
// a pivot) and the two closing row pointers, every slice exactly full —
// so a combined copy of the factor cannot creep back in beside the split
// one.
func TestLUFootprint(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{"laplacian2d": lap2D(20), "elasticity": elasticity(9)} {
		for kind, f := range splitFactors(t, a) {
			tag := name + "/" + kind
			n := f.N()
			nl, nu := len(f.l.val), len(f.u.val)
			if f.NNZ() != nl+nu+n {
				t.Errorf("%s: NNZ = %d, want nnz(L)+nnz(U)+n = %d", tag, f.NNZ(), nl+nu+n)
			}
			held := 4*(cap(f.l.ptr)+cap(f.u.ptr)+cap(f.l.col)+cap(f.u.col)) +
				8*(cap(f.l.val)+cap(f.u.val)+cap(f.piv))
			if want := 12*(nl+nu) + 16*n + 8; held != want {
				t.Errorf("%s: factor holds %d bytes, want 12·(%d+%d) + 16·%d + 8 = %d", tag, held, nl, nu, n, want)
			}
			if len(f.l.col) != nl || len(f.u.col) != nu || len(f.l.ptr) != n+1 || len(f.u.ptr) != n+1 {
				t.Errorf("%s: slice lengths disagree with the entry counts", tag)
			}
		}
	}
}

// mustPanicWith runs fn and checks that it panics with a message that
// starts with prefix.
func mustPanicWith(t *testing.T, tag, prefix string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, prefix) {
			t.Errorf("%s: panic %q, want prefix %q", tag, msg, prefix)
		}
	}()
	fn()
}

// TestSolveRejectsShortVectors checks that every Solve of the package
// refuses a short x or b up front, with the package's own message and
// before x is touched.
func TestSolveRejectsShortVectors(t *testing.T) {
	a := lap2D(5)
	n := a.Rows
	lu, err := ILUT(a, DefaultILUT())
	if err != nil {
		t.Fatal(err)
	}
	piv, err := ILUTP(a, ILUTPOptions{ILUTOptions: DefaultILUT(), PermTol: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := IC0(a)
	if err != nil {
		t.Fatal(err)
	}
	solvers := map[string]func(x, b []float64){"LU.Solve": lu.Solve, "PivLU.Solve": func(x, b []float64) { piv.Solve(x, b, make([]float64, n)) }, "Chol.Solve": ch.Solve}
	for name, solve := range solvers {
		prefix := "ilu: " + name + " dimension mismatch"
		full := make([]float64, n)
		for i := range full {
			full[i] = 1
		}
		short := make([]float64, n-1)
		for i := range short {
			short[i] = 7
		}
		mustPanicWith(t, name+" short x", prefix, func() { solve(short, full) })
		for i, v := range short {
			if v != 7 {
				t.Fatalf("%s: x[%d] overwritten before the length check", name, i)
			}
		}
		mustPanicWith(t, name+" short b", prefix, func() { solve(full, short) })
		for i, v := range full {
			if v != 1 {
				t.Fatalf("%s: x[%d] overwritten before the length check", name, i)
			}
		}
		// Longer vectors are fine: only the first n entries take part.
		long := make([]float64, n+3)
		solve(long, append(full, 5, 5, 5))
	}
}

// TestCheckFitsGuardsInt32 drives the narrowing guard with fabricated
// counts: what does not fit 32-bit indices is the package's typed
// bad-input error, named after the factorization, never a silent wrap.
func TestCheckFitsGuardsInt32(t *testing.T) {
	if err := checkFits("ILUT", math.MaxInt32-1, math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("largest representable factor rejected: %v", err)
	}
	for name, c := range map[string][3]int{
		"order":   {math.MaxInt32, 0, 0},
		"L count": {10, math.MaxInt32 + 1, 0},
		"U count": {10, 0, math.MaxInt32 + 1},
	} {
		err := checkFits("ILUT", c[0], c[1], c[2])
		var in *InputError
		if !errors.Is(err, ErrBadInput) || !errors.As(err, &in) || in.Op != "ILUT" {
			t.Errorf("%s beyond int32: got %v, want an *InputError of ILUT wrapping ErrBadInput", name, err)
		}
	}
}
