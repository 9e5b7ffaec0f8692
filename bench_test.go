// Benchmarks: one per table of the paper's evaluation (§5), plus the
// ablations called out in DESIGN.md §6. Each table benchmark regenerates
// its experiment at a reduced size and reports the aggregate iteration
// count and the modeled parallel wall-clock time as custom metrics, so
// `go test -bench=.` doubles as a quick reproduction of every table's
// shape. Full-size tables come from cmd/ippsbench.
package parapre_test

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"parapre"
	"parapre/internal/bench"
	"parapre/internal/ilu"
	"parapre/internal/obs"
	"parapre/internal/par"
	"parapre/internal/precond"
)

// benchTable regenerates one paper table per benchmark iteration.
func benchTable(b *testing.B, id string, size int, ps []int) {
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	if ps != nil {
		e.Ps = ps
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(size)
		if err != nil {
			b.Fatal(err)
		}
		var iters int
		var modelTime, wallTime float64
		for _, t := range tables {
			for _, r := range t.Rows {
				for _, c := range r.Cells {
					iters += c.Iters
					modelTime += c.Time
					wallTime += c.Wall
				}
			}
		}
		b.ReportMetric(float64(iters), "iters")
		b.ReportMetric(modelTime, "model-s")
		b.ReportMetric(wallTime, "wall-s")
	}
}

func BenchmarkTableTC1Cluster(b *testing.B) { benchTable(b, "tc1-cluster", 33, []int{2, 4, 8}) }
func BenchmarkTableTC1Origin(b *testing.B)  { benchTable(b, "tc1-origin", 33, []int{4, 8, 16}) }
func BenchmarkTableTC2Cluster(b *testing.B) { benchTable(b, "tc2-cluster", 11, []int{2, 4, 8}) }
func BenchmarkTableTC2Origin(b *testing.B)  { benchTable(b, "tc2-origin", 11, []int{4, 8, 16}) }
func BenchmarkTableTC3Cluster(b *testing.B) { benchTable(b, "tc3-cluster", 33, []int{2, 4, 8}) }
func BenchmarkTableTC4Cluster(b *testing.B) { benchTable(b, "tc4-cluster", 11, []int{2, 4, 8}) }
func BenchmarkTableTC5Cluster(b *testing.B) { benchTable(b, "tc5-cluster", 33, []int{2, 4, 8}) }
func BenchmarkTableTC5Origin(b *testing.B)  { benchTable(b, "tc5-origin", 33, []int{4, 8, 16}) }
func BenchmarkTableTC6Cluster(b *testing.B) { benchTable(b, "tc6-cluster", 17, []int{2, 4, 8}) }
func BenchmarkTableShape(b *testing.B)      { benchTable(b, "shape", 11, []int{8}) }
func BenchmarkTableSchwarz(b *testing.B)    { benchTable(b, "schwarz", 33, []int{4, 16}) }

// --- ablations (DESIGN.md §6) ---

// BenchmarkAblationSchurInner sweeps the number of inner global-Schur
// GMRES iterations inside the Schur 1 preconditioner: the
// robustness-vs-cost dial the paper attributes the Schur methods'
// efficiency to.
func BenchmarkAblationSchurInner(b *testing.B) {
	prob := parapre.BuildCase("tc1-poisson2d", 33)
	for _, inner := range []int{1, 3, 5, 10} {
		b.Run(benchName("schurIters", inner), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Schur1)
				cfg.Schur1.SchurIters = inner
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

// BenchmarkAblationILUT sweeps the ILUT fill/threshold of Block 2.
func BenchmarkAblationILUT(b *testing.B) {
	prob := parapre.BuildCase("tc5-convdiff", 33)
	for _, opt := range []ilu.ILUTOptions{
		{Tau: 1e-1, LFil: 5},
		{Tau: 1e-2, LFil: 10},
		{Tau: 1e-3, LFil: 20},
		{Tau: 1e-4, LFil: 40},
	} {
		opt := opt
		b.Run(benchName("lfil", opt.LFil), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Block2)
				cfg.ILUT = opt
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

// BenchmarkAblationOverlap sweeps the additive Schwarz overlap width.
func BenchmarkAblationOverlap(b *testing.B) {
	const size = 33
	prob := parapre.BuildCase("tc1-poisson2d", size)
	for _, ov := range []int{2, 5, 10} { // percent
		ov := ov
		b.Run(benchName("overlapPct", ov), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(4, parapre.None)
				sw := precond.DefaultSchwarz(size, 2, 2, true)
				sw.Overlap = float64(ov) / 100
				cfg.Schwarz = &sw
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

// BenchmarkAblationPartition contrasts the general and simple schemes on
// the structured 3D grid — the paper's §5.1 study.
func BenchmarkAblationPartition(b *testing.B) {
	prob := parapre.BuildCase("tc2-poisson3d", 11)
	for _, simple := range []bool{false, true} {
		simple := simple
		name := "general"
		if simple {
			name = "simple"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Block2)
				if simple {
					cfg.Scheme = parapre.PartitionSimple
				}
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

// BenchmarkAblationBlockOverlap sweeps the algebraic overlap depth of the
// overlapping block preconditioner (the paper's §1.1 remark that "an
// increased overlap may help to produce a better parallel
// preconditioner").
func BenchmarkAblationBlockOverlap(b *testing.B) {
	prob := parapre.BuildCase("tc1-poisson2d", 33)
	for _, levels := range []int{0, 1, 2, 4} {
		levels := levels
		b.Run(benchName("levels", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Block2)
				cfg.OverlapLevels = levels
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

// BenchmarkAblationRestart sweeps the FGMRES restart length around the
// paper's m = 20.
func BenchmarkAblationRestart(b *testing.B) {
	prob := parapre.BuildCase("tc1-poisson2d", 33)
	for _, m := range []int{5, 10, 20, 40} {
		m := m
		b.Run(benchName("restart", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Block2)
				cfg.Solver.Restart = m
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

// BenchmarkAblationRCM contrasts subdomain factorization with and without
// RCM reordering at small fill on the unstructured case.
func BenchmarkAblationRCM(b *testing.B) {
	prob := parapre.BuildCase("tc3-unstructured", 33)
	for _, rcm := range []bool{false, true} {
		rcm := rcm
		name := "natural"
		if rcm {
			name = "rcm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.Block2)
				cfg.ILUT.LFil = 4
				cfg.RCM = rcm
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

// BenchmarkBaselineCG contrasts the paper's FGMRES(20) accelerator with
// distributed preconditioned CG on the SPD Test Case 1 (both with the SPD
// Block IC subdomain solver).
func BenchmarkBaselineCG(b *testing.B) {
	prob := parapre.BuildCase("tc1-poisson2d", 33)
	for _, cg := range []bool{false, true} {
		cg := cg
		name := "fgmres"
		if cg {
			name = "cg"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(8, parapre.BlockIC)
				cfg.UseCG = cg
				if cg {
					cfg.Solver.Flexible = false
				}
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

func BenchmarkTableJump(b *testing.B) { benchTable(b, "jump", 21, []int{2, 4, 8}) }

// BenchmarkAblationWeakScaling holds N/P roughly constant (≈1 000
// unknowns per processor) — the complement of the paper's fixed-size
// sweeps: stable iteration counts under weak scaling are the signature of
// a scalable preconditioner.
func BenchmarkAblationWeakScaling(b *testing.B) {
	// m chosen so m² ≈ 1000·P.
	cfgs := []struct{ p, m int }{{1, 33}, {4, 65}, {16, 129}}
	for _, c := range cfgs {
		c := c
		b.Run(benchName("P", c.p), func(b *testing.B) {
			prob := parapre.BuildCase("tc1-poisson2d", c.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := parapre.DefaultConfig(c.p, parapre.Schur1)
				res, err := parapre.Solve(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iters")
				b.ReportMetric(res.SetupTime+res.SolveTime, "model-s")
			}
		})
	}
}

// BenchmarkEndToEndWorkers regenerates one paper table with the
// shared-memory worker pool pinned to 1 and to GOMAXPROCS: the modeled
// times and iteration counts are identical by construction (the kernels
// are bit-deterministic), so the only thing that moves is the measured
// wall-clock per op.
func BenchmarkEndToEndWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			e, err := bench.ByID("tc1-cluster")
			if err != nil {
				b.Fatal(err)
			}
			e.Ps = []int{4}
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(65)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					for _, r := range t.Rows {
						for _, c := range r.Cells {
							iters += c.Iters
						}
					}
				}
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters")
		})
	}
}

// BenchmarkPaperCells sets up the 28 cells of the benchmark's paper_tables
// workload (benchmark/inputs.go: four cases at the sizes below, the paper's
// four preconditioners — the Schur pair alone on tc6 — at P 4 and 8) through
// NewSession, the way a tables run visits them: every preconditioner and P
// on one Problem per case. first-pass assembles the problems anew for every
// iteration, outside the timer, so 8 of the 28 set-ups partition and
// distribute and the other 20 find that done on their Problem; repeated
// sweeps problems that were swept once before, so all 28 do. ns/op is the
// wall of one sweep of 28 cells; layout_reuses/op says how many of them
// were handed their partition and systems.
func BenchmarkPaperCells(b *testing.B) {
	cases := []struct {
		name      string
		size      int
		schurOnly bool
	}{{"tc1-poisson2d", 129, false}, {"tc2-poisson3d", 21, false}, {"tc5-convdiff", 129, false}, {"tc6-elasticity", 49, true}}
	assemble := func() []*parapre.Problem {
		probs := make([]*parapre.Problem, len(cases))
		for i, c := range cases {
			probs[i] = parapre.BuildCase(c.name, c.size)
		}
		return probs
	}
	sweep := func(b *testing.B, probs []*parapre.Problem, col *obs.Collector) {
		for i, c := range cases {
			for _, k := range []precond.Kind{parapre.Schur1, parapre.Schur2, parapre.Block1, parapre.Block2} {
				if c.schurOnly && k != parapre.Schur1 && k != parapre.Schur2 {
					continue
				}
				for _, p := range []int{4, 8} {
					cfg := parapre.DefaultConfig(p, k)
					cfg.Collector = col
					if _, err := parapre.NewSession(probs[i], cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	report := func(b *testing.B, col *obs.Collector) {
		var buf bytes.Buffer
		if err := col.WriteMetrics(&buf, nil); err != nil {
			b.Fatal(err)
		}
		var reuses float64
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "parapre_layout_reuses "); ok {
				reuses, _ = strconv.ParseFloat(v, 64) // absent or malformed reads as none
			}
		}
		b.ReportMetric(reuses/float64(b.N), "layout_reuses/op")
	}
	b.Run("first-pass", func(b *testing.B) {
		col := obs.NewCollector()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			probs := assemble()
			b.StartTimer()
			sweep(b, probs, col)
		}
		report(b, col)
	})
	b.Run("repeated", func(b *testing.B) {
		probs := assemble()
		sweep(b, probs, nil)
		col := obs.NewCollector()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, probs, col)
		}
		report(b, col)
	})
}
