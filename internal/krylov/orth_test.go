package krylov

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/par"
	"parapre/internal/paranoid"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

// orthUnfusedRef is the orthogonalization loop of GMRES as it stood before
// the fused kernel, kept verbatim as the reference: one pass over w for
// every inner product and one for every update.
func orthUnfusedRef(opt *Options, dot func(x, y []float64) float64, w []float64, V [][]float64, j, m int, H []float64) float64 {
	nf := float64(len(w))
	for i := 0; i <= j; i++ {
		h := dot(w, V[i])
		paranoid.CheckFinite("krylov: Gram-Schmidt coefficient", h)
		H[i+j*(m+1)] = h
		sparse.Axpy(-h, V[i], w)
		opt.charge(2 * nf)
	}
	return dotNorm(dot, w)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// orthOperands draws m basis vectors of roughly unit norm and a vector to
// orthogonalize against them.
func orthOperands(seed int64, m, n int) (V [][]float64, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	V = make([][]float64, m)
	for i := range V {
		V[i] = make([]float64, n)
		for k := range V[i] {
			V[i][k] = rng.NormFloat64() / math.Sqrt(float64(n))
		}
	}
	w = make([]float64, n)
	for k := range w {
		w[k] = rng.NormFloat64()
	}
	return V, w
}

// TestOrthStepBitsMatchUnfused compares one orthogonalization step of the
// solver with the reference loop on the same operands: the Hessenberg
// column, the orthogonalized vector, its norm, and the order in which
// vector updates are charged and inner products taken (the order of the
// clock additions of a distributed solve).
func TestOrthStepBitsMatchUnfused(t *testing.T) {
	const m = 20
	for _, n := range []int{100, 4160, 8320} {
		V, w0 := orthOperands(int64(n), m, n)
		for j := 0; j < m; j++ {
			var refLog, gotLog []string
			refOpt := Options{Compute: func(f float64) { refLog = append(refLog, fmt.Sprint("update ", f)) }}
			gotOpt := Options{Compute: func(f float64) { gotLog = append(gotLog, fmt.Sprint("update ", f)) }}

			wRef := append([]float64(nil), w0...)
			hRef := make([]float64, (m+1)*m)
			hnRef := orthUnfusedRef(&refOpt, func(x, y []float64) float64 {
				refLog = append(refLog, "dot")
				return sparse.Dot(x, y)
			}, wRef, V, j, m, hRef)

			wGot := append([]float64(nil), w0...)
			hGot := make([]float64, (m+1)*m)
			hnGot := gotOpt.orthogonalize(Inner{
				Dot: func(x, y []float64) float64 {
					gotLog = append(gotLog, "dot")
					return sparse.Dot(x, y)
				},
				AxpyDot: func(a float64, x, y, z []float64) float64 {
					gotLog = append(gotLog, "dot")
					return sparse.AxpyDot(a, x, y, z)
				},
			}, wGot, V[:j+1], hGot[j*(m+1):])

			if math.Float64bits(hnGot) != math.Float64bits(hnRef) {
				t.Fatalf("n=%d j=%d: norm %v, reference %v", n, j, hnGot, hnRef)
			}
			if !sameBits(hGot, hRef) {
				t.Fatalf("n=%d j=%d: Hessenberg column differs from the reference", n, j)
			}
			if !sameBits(wGot, wRef) {
				t.Fatalf("n=%d j=%d: orthogonalized vector differs from the reference", n, j)
			}
			if fmt.Sprint(gotLog) != fmt.Sprint(refLog) {
				t.Fatalf("n=%d j=%d: charge order %v, reference %v", n, j, gotLog, refLog)
			}
		}
	}
}

// TestOrthStepDistributedMatchesUnfused repeats the step comparison on P
// ranks (the last one empty) with the real distributed inner product, so
// that the modeled clocks — computation, all-reduce synchronization and
// flop counts of every rank — are compared as well.
func TestOrthStepDistributedMatchesUnfused(t *testing.T) {
	const m = 20
	type outcome struct {
		h, w  []float64
		hn    []float64
		stats dist.Stats
	}
	for _, p := range []int{1, 2, 4, 8} {
		systems := orthSystems(t, 13, p)
		run := func(fused bool) []outcome {
			out := make([]outcome, p)
			dist.Run(p, testMachine(), func(c *dist.Comm) {
				r := c.Rank()
				s := systems[r]
				V, w0 := orthOperands(int64(100*p+r), m, s.NLoc())
				_, _, in := newDistOps(c, s)
				opt := Options{Compute: c.Compute}
				o := &out[r]
				o.h = make([]float64, (m+1)*m)
				o.w = make([]float64, s.NLoc())
				for j := 0; j < m; j++ {
					copy(o.w, w0)
					if fused {
						o.hn = append(o.hn, opt.orthogonalize(in, o.w, V[:j+1], o.h[j*(m+1):]))
					} else {
						o.hn = append(o.hn, orthUnfusedRef(&opt, in.Dot, o.w, V, j, m, o.h))
					}
				}
				o.stats = c.Stats()
			})
			return out
		}
		want, got := run(false), run(true)
		for r := range got {
			if !sameBits(got[r].hn, want[r].hn) || !sameBits(got[r].h, want[r].h) || !sameBits(got[r].w, want[r].w) {
				t.Fatalf("P=%d rank %d: Hessenberg columns, norms or vector differ from the reference", p, r)
			}
			if got[r].stats != want[r].stats {
				t.Fatalf("P=%d rank %d: clock accounting %+v, reference %+v", p, r, got[r].stats, want[r].stats)
			}
		}
	}
}

// orthRun is everything one solve exposes: the result, the iterate, the
// per-iteration snapshots of the recurrence (Hessenberg columns, basis)
// and, for a distributed solve, the rank's clock accounting.
type orthRun struct {
	res   Result
	x     []float64
	snaps []*State
	stats dist.Stats
}

func compareOrthRuns(t *testing.T, label string, got, want orthRun) {
	t.Helper()
	if got.res.Iterations != want.res.Iterations || got.res.Restarts != want.res.Restarts ||
		got.res.Converged != want.res.Converged {
		t.Fatalf("%s: %d iterations / %d restarts (converged %v), reference %d / %d (%v)", label,
			got.res.Iterations, got.res.Restarts, got.res.Converged,
			want.res.Iterations, want.res.Restarts, want.res.Converged)
	}
	if !sameBits(got.res.History, want.res.History) {
		t.Fatalf("%s: residual history differs from the reference", label)
	}
	if !sameBits(got.x, want.x) {
		t.Fatalf("%s: iterate differs from the reference", label)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: clock accounting %+v, reference %+v", label, got.stats, want.stats)
	}
	if len(got.snaps) != len(want.snaps) {
		t.Fatalf("%s: %d snapshots, reference %d", label, len(got.snaps), len(want.snaps))
	}
	for k, g := range got.snaps {
		w := want.snaps[k]
		if g.Iter != w.Iter || g.J != w.J || !sameBits(g.H, w.H) || !sameBits(g.G, w.G) {
			t.Fatalf("%s: Hessenberg columns differ from the reference at iteration %d", label, g.Iter)
		}
		for i := range g.V {
			if !sameBits(g.V[i], w.V[i]) {
				t.Fatalf("%s: basis vector %d differs from the reference at iteration %d", label, i, g.Iter)
			}
		}
	}
}

// orthOpts runs four restart cycles of (F)GMRES(5) and snapshots the
// recurrence at every iteration boundary.
func orthOpts(flex bool, snaps *[]*State) Options {
	return Options{Restart: 5, MaxIters: 18, Tol: 1e-30, Flexible: flex, RecordHistory: true,
		CheckpointEvery: 1, Checkpoint: func(st *State) { *snaps = append(*snaps, st) }}
}

// midCycle picks the snapshot taken two columns into the second cycle.
func midCycle(t *testing.T, snaps []*State) *State {
	t.Helper()
	for _, st := range snaps {
		if st.Iter == 7 && st.J == 2 {
			return st
		}
	}
	t.Fatal("no mid-cycle snapshot at iteration 7")
	return nil
}

// TestGMRESOrthBitsMatchUnfused runs whole solves twice — with the fused
// inner product the solvers ship with, and through UpdateThenDot, which
// turns the solver's loop back into the two-pass arithmetic of
// orthUnfusedRef — and demands identical Hessenberg columns, histories,
// counts, iterates and modeled clocks, sequentially and on P ranks (one of
// them empty), for GMRES and FGMRES, across restarts and across a
// mid-cycle checkpoint/resume.
func TestGMRESOrthBitsMatchUnfused(t *testing.T) {
	for _, flex := range []bool{false, true} {
		name := map[bool]string{false: "GMRES", true: "FGMRES"}[flex]

		// Sequential, three reduction blocks per vector.
		a := laplacian2D(92)
		n := a.Rows
		diag := a.Diagonal()
		prec := func(z, r []float64) {
			for i := range z {
				z[i] = r[i] / diag[i]
			}
		}
		b := make([]float64, n)
		rng := rand.New(rand.NewSource(3))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		matvec := func(y, x []float64) { a.MulVecTo(y, x) }
		seq := func(in Inner, resume *State) orthRun {
			var run orthRun
			opt := orthOpts(flex, &run.snaps)
			opt.Resume = resume
			run.x = make([]float64, n)
			run.res = GMRES(n, matvec, prec, in, b, run.x, opt)
			return run
		}
		want := seq(UpdateThenDot(sparse.Dot), nil)
		if want.res.Restarts < 2 {
			t.Fatalf("%s: reference ran %d restarts, want at least 2", name, want.res.Restarts)
		}
		got := seq(Seq, nil)
		compareOrthRuns(t, name+"/sequential", got, want)
		resumed := seq(Seq, midCycle(t, got.snaps))
		resumed.snaps, want.snaps = nil, nil
		compareOrthRuns(t, name+"/sequential/resumed", resumed, want)

		// Distributed. m = 13 keeps every rank inside one block; m = 95
		// on two ranks with one empty puts three blocks on rank 0.
		for _, tc := range []struct{ m, p int }{{13, 1}, {13, 2}, {13, 4}, {13, 8}, {95, 2}} {
			systems := orthSystems(t, tc.m, tc.p)
			distRun := func(fused bool, resume []*State) []orthRun {
				runs := make([]orthRun, tc.p)
				dist.Run(tc.p, testMachine(), func(c *dist.Comm) {
					r := c.Rank()
					s := systems[r]
					d, matvec, in := newDistOps(c, s)
					if !fused {
						in = UpdateThenDot(in.Dot)
					}
					diag := s.A.Diagonal()
					prec := func(z, rr []float64) {
						for i := range z {
							z[i] = rr[i] / diag[i]
						}
						c.Compute(float64(len(z)))
					}
					opt := orthOpts(flex, &runs[r].snaps)
					opt.Compute = c.Compute
					if resume != nil {
						opt.Resume = resume[r]
					}
					runs[r].x = make([]float64, s.NLoc())
					runs[r].res = d.attach(GMRES(s.NLoc(), matvec, prec, in, s.B, runs[r].x, opt))
					runs[r].stats = c.Stats()
				})
				return runs
			}
			want := distRun(false, nil)
			got := distRun(true, nil)
			mid := make([]*State, tc.p)
			for r := range got {
				label := fmt.Sprintf("%s/m=%d/P=%d/rank %d", name, tc.m, tc.p, r)
				compareOrthRuns(t, label, got[r], want[r])
				mid[r] = midCycle(t, got[r].snaps)
			}
			// A resumed world starts its clocks at zero, so only the
			// arithmetic is compared.
			resumed := distRun(true, mid)
			for r := range resumed {
				resumed[r].snaps, want[r].snaps = nil, nil
				resumed[r].stats = want[r].stats
				compareOrthRuns(t, fmt.Sprintf("%s/m=%d/P=%d/rank %d/resumed", name, tc.m, tc.p, r), resumed[r], want[r])
			}
		}
	}
}

// orthSystems distributes the m×m Poisson problem over p ranks; from two
// ranks up the last one owns nothing.
func orthSystems(t *testing.T, m, p int) []*dsys.System {
	t.Helper()
	a := laplacian2D(m)
	n := a.Rows
	rng := rand.New(rand.NewSource(int64(m)))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	parts := p
	if p > 1 {
		parts = p - 1
	}
	adj := make([]int, len(a.ColIdx))
	for k, j := range a.ColIdx {
		adj[k] = int(j)
	}
	part, err := partition.General(&partition.Graph{Ptr: a.RowPtr, Adj: adj}, parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	systems := dsys.Distribute(a, b, part, p)
	if p > 1 && systems[p-1].NLoc() != 0 {
		t.Fatalf("P=%d: the last rank owns %d unknowns, want an empty rank", p, systems[p-1].NLoc())
	}
	return systems
}

// BenchmarkOrthStep times one orthogonalization step against j+1 basis
// vectors, j = 0…19 in turn (one restart cycle of GMRES(20)), with the
// solver's fused loop and with the two-pass reference. One worker, as in
// the zero-allocation tests: the parallel fan-out allocates by design.
func BenchmarkOrthStep(b *testing.B) {
	const m = 20
	defer par.SetWorkers(par.SetWorkers(1))
	for _, n := range []int{4160, 8320} {
		V, w0 := orthOperands(1, m, n)
		w := make([]float64, n)
		H := make([]float64, (m+1)*m)
		var opt Options
		var sink float64
		b.Run(fmt.Sprintf("unfused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				for j := 0; j < m; j++ {
					copy(w, w0)
					sink += orthUnfusedRef(&opt, sparse.Dot, w, V, j, m, H)
				}
			}
		})
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				for j := 0; j < m; j++ {
					copy(w, w0)
					sink += opt.orthogonalize(Seq, w, V[:j+1], H[j*(m+1):])
				}
			}
		})
		_ = sink
	}
}
