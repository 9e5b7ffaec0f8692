package schur

import (
	"math"
	"math/rand"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/ilu"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

func testMachine() *dist.Machine {
	return &dist.Machine{Name: "test", FlopRate: 1e9, Latency: 1e-6, ByteTime: 1e-9, Load: 1}
}

func buildSystems(t *testing.T, m, p int, seed int64) ([]*dsys.System, *sparse.CSR, []int) {
	t.Helper()
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Source: func(x []float64) float64 { return 1 }})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	ptr, adj := g.NodeGraph()
	part, err := partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, p, seed)
	if err != nil {
		panic(err)
	}
	return dsys.Distribute(a, b, part, p), a, part
}

// denseGlobalSchur computes the exact global Schur complement over the
// interface unknowns, ordered rank-major (each rank's interface globals in
// their local order).
func denseGlobalSchur(t *testing.T, a *sparse.CSR, systems []*dsys.System) (*sparse.Dense, []int) {
	t.Helper()
	var bIdx, cIdx []int
	for _, s := range systems {
		for _, g := range s.GlobalIDs[:s.NInt] {
			bIdx = append(bIdx, int(g))
		}
	}
	for _, s := range systems {
		for _, g := range s.GlobalIDs[s.NInt:] {
			cIdx = append(cIdx, int(g))
		}
	}
	App := sparse.Extract(a, bIdx, bIdx).Dense()
	Apc := sparse.Extract(a, bIdx, cIdx).Dense()
	Acp := sparse.Extract(a, cIdx, bIdx).Dense()
	Acc := sparse.Extract(a, cIdx, cIdx).Dense()
	f, err := App.Factor()
	if err != nil {
		t.Fatal(err)
	}
	nb, nc := len(bIdx), len(cIdx)
	s := sparse.NewDense(nc, nc)
	col := make([]float64, nb)
	for j := 0; j < nc; j++ {
		for i := 0; i < nb; i++ {
			col[i] = Apc.At(i, j)
		}
		w := f.Solve(col)
		for i := 0; i < nc; i++ {
			var acw float64
			for k := 0; k < nb; k++ {
				acw += Acp.At(i, k) * w[k]
			}
			s.Set(i, j, Acc.At(i, j)-acw)
		}
	}
	return s, cIdx
}

func exactBSolve(t *testing.T, s *dsys.System) *ilu.LU {
	t.Helper()
	f, err := ilu.ILUT(s.Window(dsys.PartB).CSR(), ilu.ILUTOptions{Tau: 0, LFil: 0})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestImplicitMatVecMatchesDenseGlobalSchur(t *testing.T) {
	const p = 4
	systems, a, _ := buildSystems(t, 9, p, 1)
	sDense, _ := denseGlobalSchur(t, a, systems)

	// Random global interface vector, rank-major.
	rng := rand.New(rand.NewSource(2))
	nC := sDense.Rows
	y := make([]float64, nC)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	want := sDense.MulVec(y)

	// Split into per-rank pieces.
	pieces := make([][]float64, p)
	offs := make([]int, p+1)
	for r, s := range systems {
		offs[r+1] = offs[r] + s.NIface()
		pieces[r] = y[offs[r]:offs[r+1]]
	}

	got := make([][]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		op, err := NewImplicit(s, exactBSolve(t, s))
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		out := make([]float64, op.N())
		if err := op.MatVec(c, op.NewWork(), out, pieces[c.Rank()]); err != nil {
			t.Errorf("rank %d MatVec: %v", c.Rank(), err)
			return
		}
		got[c.Rank()] = out
	})
	for r := 0; r < p; r++ {
		for i, v := range got[r] {
			if math.Abs(v-want[offs[r]+i]) > 1e-8 {
				t.Fatalf("rank %d entry %d: %v, want %v", r, i, v, want[offs[r]+i])
			}
		}
	}
}

func TestExplicitMatchesImplicitWithExactB(t *testing.T) {
	const p = 3
	systems, _, _ := buildSystems(t, 8, p, 3)
	rng := rand.New(rand.NewSource(4))

	pieces := make([][]float64, p)
	for r, s := range systems {
		v := make([]float64, s.NIface())
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		pieces[r] = v
	}

	implicit := make([][]float64, p)
	explicit := make([][]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		bf := exactBSolve(t, s)
		opI, err := NewImplicit(s, bf)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		out := make([]float64, opI.N())
		if err := opI.MatVec(c, opI.NewWork(), out, pieces[c.Rank()]); err != nil {
			t.Errorf("rank %d MatVec: %v", c.Rank(), err)
			return
		}
		implicit[c.Rank()] = out
	})

	// Explicit local Schur: dense S_i = C − E·B⁻¹·F per rank, converted to
	// CSR.
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		bf := exactBSolve(t, s)
		nI := s.NIface()
		cBlk, eBlk, fBlk := s.Window(dsys.PartC), s.Window(dsys.PartE), s.Window(dsys.PartF)
		coo := sparse.NewCOO(nI, nI, nI*nI)
		// column j of S_i
		xj := make([]float64, nI)
		fx := make([]float64, s.NInt)
		bx := make([]float64, s.NInt)
		ex := make([]float64, nI)
		for j := 0; j < nI; j++ {
			for i := range xj {
				xj[i] = 0
			}
			xj[j] = 1
			cBlk.MulVecTo(ex, xj)
			if s.NInt > 0 {
				fBlk.MulVecTo(fx, xj)
				bf.Solve(bx, fx)
				eBlk.MulVecSub(ex, bx)
			}
			for i := 0; i < nI; i++ {
				if ex[i] != 0 {
					coo.Add(i, j, ex[i])
				}
			}
		}
		sLoc := coo.ToCSR()
		op, err := NewExplicit(s, sLoc, func(l int) (int, bool) {
			if l < s.NInt {
				return 0, false
			}
			return l - s.NInt, true
		})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		out := make([]float64, op.N())
		if err := op.MatVec(c, op.NewWork(), out, pieces[c.Rank()]); err != nil {
			t.Errorf("rank %d MatVec: %v", c.Rank(), err)
			return
		}
		explicit[c.Rank()] = out
	})

	for r := 0; r < p; r++ {
		for i := range implicit[r] {
			if math.Abs(implicit[r][i]-explicit[r][i]) > 1e-9 {
				t.Fatalf("rank %d entry %d: implicit %v vs explicit %v", r, i, implicit[r][i], explicit[r][i])
			}
		}
	}
}

func TestIfaceDotGlobal(t *testing.T) {
	const p = 3
	systems, _, _ := buildSystems(t, 8, p, 5)
	rng := rand.New(rand.NewSource(6))
	var want float64
	pieces := make([][]float64, p)
	for r, s := range systems {
		v := make([]float64, s.NIface())
		for i := range v {
			v[i] = rng.NormFloat64()
			want += v[i] * v[i]
		}
		pieces[r] = v
	}
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		op, err := NewImplicit(s, exactBSolve(t, s))
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		got := op.Dot(c, pieces[c.Rank()], pieces[c.Rank()])
		if math.Abs(got-want) > 1e-10*(1+want) {
			t.Errorf("rank %d: dot %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestNewExplicitValidation(t *testing.T) {
	systems, _, _ := buildSystems(t, 8, 2, 7)
	s := systems[0]
	if s.NIface() < 2 {
		t.Fatalf("rank 0 has %d interface unknowns, the test needs two", s.NIface())
	}
	ifaceLast := func(l int) (int, bool) { return l - s.NInt, l >= s.NInt }
	if _, err := NewExplicit(s, sparse.NewCSR(2, 3, 0), ifaceLast); err == nil {
		t.Fatal("non-square accepted")
	}
	sq := sparse.Identity(s.NIface())
	if _, err := NewExplicit(s, sq, ifaceLast); err != nil {
		t.Fatalf("interface last in local order refused: %v", err)
	}
	// The external couplings are added to the last NIface rows: an
	// interface ordered any other way is refused, not coupled wrongly.
	reversed := func(l int) (int, bool) { return s.NLoc() - 1 - l, l >= s.NInt }
	if _, err := NewExplicit(s, sq, reversed); err == nil {
		t.Fatal("interface in reverse order accepted")
	}
	if _, err := NewExplicit(s, sparse.Identity(s.NIface()+1), ifaceLast); err == nil {
		t.Fatal("interface not last accepted")
	}
}
