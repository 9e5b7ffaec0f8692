package dsys

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/fem"
	"parapre/internal/grid"
	"parapre/internal/par"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

func testMachine() *dist.Machine {
	return &dist.Machine{Name: "test", FlopRate: 1e9, Latency: 1e-6, ByteTime: 1e-9, Load: 1}
}

// poissonSystem assembles a small 2D Poisson problem with Dirichlet BC and
// partitions it into p parts.
func poissonSystem(t testing.TB, m, p int, seed int64) (*sparse.CSR, []float64, []int) {
	g := grid.UnitSquareTri(m)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{
		Diffusion: 1,
		Source:    func(x []float64) float64 { return x[0] * math.Exp(x[1]) },
	})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = x0ey(g.Coord(n))
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	ptr, adj := g.NodeGraph()
	part, err := partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, p, seed)
	if err != nil {
		panic(err)
	}
	return a, b, part
}

func x0ey(x []float64) float64 { return x[0] * math.Exp(x[1]) }

func TestDistributePartitionsAllRows(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 4, 1)
	systems := Distribute(a, b, part, 4)
	total := 0
	seen := make([]bool, a.Rows)
	for _, s := range systems {
		if err := s.CheckStructure(); err != nil {
			t.Fatal(err)
		}
		total += s.NLoc()
		for _, g := range s.GlobalIDs {
			if seen[g] {
				t.Fatalf("global %d owned twice", g)
			}
			seen[g] = true
		}
	}
	if total != a.Rows {
		t.Fatalf("owned %d rows of %d", total, a.Rows)
	}
}

func TestInternalInterfaceClassification(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 4, 2)
	systems := Distribute(a, b, part, 4)
	for _, s := range systems {
		// Interface rows must reference at least one external column
		// (otherwise they would be internal)… unless the row's external
		// couplings were eliminated by Dirichlet BC. Check the defining
		// property on the global matrix instead: a local unknown is
		// interface iff its global row couples to another part.
		for l, g := range s.GlobalIDs {
			cols, _ := a.Row(g)
			cross := false
			for _, j32 := range cols {
				j := int(j32)
				if part[j] != part[g] {
					cross = true
					break
				}
			}
			if cross != (l >= s.NInt) {
				t.Fatalf("rank %d: local %d (global %d): cross=%v but class=%v", s.Rank, l, g, cross, l >= s.NInt)
			}
		}
	}
}

func TestBlocksTileLocalMatrix(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 3, 3)
	systems := Distribute(a, b, part, 3)
	for _, s := range systems {
		bb, ff, ee, cc, ex := s.Window(PartB).CSR(), s.Window(PartF).CSR(), s.Window(PartE).CSR(),
			s.Window(PartC).CSR(), s.Window(PartEExt).CSR()
		if bb.NNZ()+ff.NNZ()+ee.NNZ()+cc.NNZ()+ex.NNZ() != s.A.NNZ() {
			t.Fatalf("rank %d: blocks do not tile A (%d+%d+%d+%d+%d != %d)",
				s.Rank, bb.NNZ(), ff.NNZ(), ee.NNZ(), cc.NNZ(), ex.NNZ(), s.A.NNZ())
		}
		// Spot-check a few entries.
		for i := 0; i < s.NInt; i++ {
			cols, vals := s.A.Row(i)
			for k, j32 := range cols {
				j := int(j32)
				if j < s.NInt {
					if bb.At(i, j) != vals[k] {
						t.Fatalf("rank %d: B(%d,%d) mismatch", s.Rank, i, j)
					}
				} else if ff.At(i, j-s.NInt) != vals[k] {
					t.Fatalf("rank %d: F(%d,%d) mismatch", s.Rank, i, j-s.NInt)
				}
			}
		}
	}
}

// Sessions of one layout ask a system for its windows at the same time:
// the row splits are computed once, whoever asks first, and every window
// reads the ones the system keeps.
func TestWindowsShareSplitsAcrossGoroutines(t *testing.T) {
	a, b, part := poissonSystem(t, 17, 3, 3)
	s := Distribute(a, b, part, 3)[1]
	windows := make([]*Window, 10)
	var wg sync.WaitGroup
	wg.Add(len(windows))
	for g := range windows {
		go func(g int) {
			defer wg.Done()
			windows[g] = s.Window(Part(g % 5))
		}(g)
	}
	wg.Wait()
	sp := s.splits.Load()
	aliases := func(run, of []int32) bool {
		for k := range of {
			if &of[k] == &run[0] {
				return true
			}
		}
		return false
	}
	for g, w := range windows {
		for _, run := range [][]int32{w.lo, w.hi} {
			if len(run) > 0 && !aliases(run, sp.own) && !aliases(run, sp.ext) {
				t.Errorf("window %d (part %d) reads splits the system does not keep", g, g%5)
			}
		}
	}
}

// A product split across workers sweeps the window's rows, or the F rows
// listed, in segments: every split covers them and gives the bits of the
// whole sweep, −0 in y included.
func TestWindowSegmentsMatchWholeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(6) > 0 {
				v[i] = rng.NormFloat64()
			} else {
				v[i] = math.Copysign(0, -1)
			}
		}
		return v
	}
	a, b, part := poissonSystem(t, 17, 3, 3)
	for _, s := range Distribute(a, b, part, 3) {
		for p := PartB; p <= PartEExt; p++ {
			w := s.Window(p)
			x, y0 := vec(w.Cols), vec(w.Rows)
			for _, how := range []int{set, add, sub} {
				want := append([]float64(nil), y0...)
				w.mul(how, want, -0.5, x)
				for segs := 1; segs <= 5; segs++ {
					bounds := w.segments(how, segs)
					n := bounds[len(bounds)-1]
					if len(bounds) != segs+1 || bounds[0] != 0 || (w.listed(how) && n != len(w.rows)) || (!w.listed(how) && n != w.Rows) {
						t.Fatalf("rank %d part %d: %d segments %v do not cover the rows swept", s.Rank, p, segs, bounds)
					}
					got := append([]float64(nil), y0...)
					if w.listed(how) && how == set {
						clear(got)
					}
					for k := 0; k < segs; k++ {
						w.mulRange(how, got, -0.5, x, bounds[k], bounds[k+1])
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("rank %d part %d, %d segments, product %d: row %d is %v, the whole sweep's %v",
								s.Rank, p, segs, how, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	a, b, part := poissonSystem(t, 8, 4, 4)
	systems := Distribute(a, b, part, 4)
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	back := Gather(systems, Scatter(systems, x))
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestDistributedMatVecMatchesGlobal(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		a, b, part := poissonSystem(t, 11, p, 5)
		systems := Distribute(a, b, part, p)
		rng := rand.New(rand.NewSource(10))
		x := make([]float64, a.Rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := a.MulVec(x)
		xl := Scatter(systems, x)
		yl := make([][]float64, p)
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			s := systems[c.Rank()]
			y := make([]float64, s.NLoc())
			ext := make([]float64, s.NLoc()+s.NExt())
			if err := s.MatVec(c, y, xl[c.Rank()], ext); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			yl[c.Rank()] = y
		})
		got := Gather(systems, yl)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("p=%d: matvec differs at %d: %v vs %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestDistributedDotAndNorm(t *testing.T) {
	const p = 4
	a, b, part := poissonSystem(t, 9, p, 6)
	systems := Distribute(a, b, part, p)
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	wantDot := sparse.Dot(x, y)
	wantNorm := sparse.Norm2(x)
	xl, yl := Scatter(systems, x), Scatter(systems, y)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		if got := s.Dot(c, xl[c.Rank()], yl[c.Rank()]); math.Abs(got-wantDot) > 1e-10 {
			t.Errorf("rank %d: dot %v, want %v", c.Rank(), got, wantDot)
		}
		if got := s.Norm2(c, xl[c.Rank()]); math.Abs(got-wantNorm) > 1e-10 {
			t.Errorf("rank %d: norm %v, want %v", c.Rank(), got, wantNorm)
		}
	})
}

func TestDistributeUnsymmetricPattern(t *testing.T) {
	// Convection-diffusion (SUPG) has an unsymmetric pattern-value mix;
	// the exchange wiring must handle one-way coupling gracefully.
	g := grid.UnitSquareTri(9)
	a, b := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1, Velocity: []float64{900, 300}, SUPG: true})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	fem.ApplyDirichlet(a, b, bc)
	ptr, adj := g.NodeGraph()
	const p = 3
	part, err := partition.General(&partition.Graph{Ptr: ptr, Adj: adj}, p, 7)
	if err != nil {
		panic(err)
	}
	systems := Distribute(a, b, part, p)
	for _, s := range systems {
		if err := s.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := a.MulVec(x)
	xl := Scatter(systems, x)
	yl := make([][]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		y := make([]float64, s.NLoc())
		ext := make([]float64, s.NLoc()+s.NExt())
		if err := s.MatVec(c, y, xl[c.Rank()], ext); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		yl[c.Rank()] = y
	})
	got := Gather(systems, yl)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("unsym matvec differs at %d", i)
		}
	}
}

func TestRHSDistribution(t *testing.T) {
	a, b, part := poissonSystem(t, 8, 3, 8)
	systems := Distribute(a, b, part, 3)
	bl := make([][]float64, 3)
	for r, s := range systems {
		bl[r] = s.B
	}
	back := Gather(systems, bl)
	for i := range b {
		if back[i] != b[i] {
			t.Fatalf("rhs differs at %d", i)
		}
	}
}

func TestSystemString(t *testing.T) {
	a, b, part := poissonSystem(t, 8, 2, 9)
	systems := Distribute(a, b, part, 2)
	if s := systems[0].String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestDistributeP1(t *testing.T) {
	a, b, _ := poissonSystem(t, 8, 2, 9)
	part := make([]int, a.Rows)
	systems := Distribute(a, b, part, 1)
	s := systems[0]
	if s.NLoc() != a.Rows || s.NExt() != 0 || s.NInt != a.Rows {
		t.Fatalf("single-rank system wrong: %v", s)
	}
	// MatVec without neighbors must equal the global product.
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := a.MulVec(x)
	dist.Run(1, testMachine(), func(c *dist.Comm) {
		y := make([]float64, s.NLoc())
		ext := make([]float64, s.NLoc())
		if err := s.MatVec(c, y, x, ext); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-12 {
				t.Errorf("p=1 matvec differs at %d", i)
				return
			}
		}
	})
}

// BenchmarkWindowMulVec times the product of each part of one rank's
// matrix read in place (window) and from an extracted copy (copy).
func BenchmarkWindowMulVec(b *testing.B) {
	a, rhs, part := poissonSystem(b, 129, 4, 1)
	s := Distribute(a, rhs, part, 4)[0]
	x := make([]float64, s.NLoc()+s.NExt())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, s.NLoc())
	for _, p := range []struct {
		name string
		part Part
	}{{"B", PartB}, {"F", PartF}, {"E", PartE}, {"C", PartC}, {"EExt", PartEExt}} {
		w := s.Window(p.part)
		c := w.CSR()
		b.Run(p.name+"/window", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.MulVecTo(y, x)
			}
		})
		b.Run(p.name+"/copy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MulVecTo(y, x)
			}
		})
	}
}

// A steady-state Exchange allocates nothing on this side: the sends pack
// through the halo's leased staging buffer, so what is left per round are
// the transport's own payload copies (dist.Comm.Send copies every message
// — one object per message sent in the whole world, observed globally
// because allocation counters are process-wide).
func TestExchangeSteadyStateAllocs(t *testing.T) {
	const p = 2
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	a, b, part := poissonSystem(t, 9, p, 1)
	systems := Distribute(a, b, part, p)
	msgs := 0
	for _, s := range systems {
		for _, nb := range s.Neigh {
			if len(nb.SendIdx) > 0 {
				msgs++
			}
		}
	}
	if msgs == 0 {
		t.Fatal("test partition produced no neighbor traffic")
	}
	got := make([]float64, p)
	dist.Run(p, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		ext := make([]float64, s.NLoc()+s.NExt())
		// Both ranks run AllocsPerRun with the same run count, so the
		// exchanges stay paired across the whole measurement.
		got[c.Rank()] = testing.AllocsPerRun(10, func() {
			if err := s.Exchange(c, ext); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		})
	})
	for r, g := range got {
		if g > float64(msgs) {
			t.Errorf("rank %d: %v allocations per exchange, want at most the %d transport copies", r, g, msgs)
		}
	}
}
