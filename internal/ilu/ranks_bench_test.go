package ilu_test

import (
	"fmt"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/precond"
)

// rankFactors builds the ILUT factor of every rank's owned block the way
// a Block 2 session does: the case's problem, core's partition, dsys's
// distribution, the default ILUT setting.
func rankFactors(tb testing.TB, name string, size, p int) []*ilu.LU {
	tb.Helper()
	c, err := cases.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prob := c.Build(size)
	cfg := core.DefaultConfig(p, precond.KindBlock2)
	part, err := core.Partition(prob, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*ilu.LU
	for _, s := range dsys.Distribute(prob.A, prob.B, part, p) {
		f, err := ilu.ILUT(s.OwnedBlock(), cfg.ILUT)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// BenchmarkLUSolveRanks solves with the ILUT factors of all ranks of a
// case in turn — what one thread does between two collectives of a warm
// Block 2 solve, each factor evicting the previous one from the cache —
// and reports the time per stored factor entry.
func BenchmarkLUSolveRanks(b *testing.B) {
	for _, w := range []struct {
		name    string
		size, p int
	}{{"tc1-poisson2d", 129, 4}, {"tc6-elasticity", 65, 8}} {
		b.Run(fmt.Sprintf("%s@%d/P%d", w.name, w.size, w.p), func(b *testing.B) {
			factors := rankFactors(b, w.name, w.size, w.p)
			nnz := 0
			xs, rhs := make([][]float64, len(factors)), make([][]float64, len(factors))
			for r, f := range factors {
				nnz += f.NNZ()
				xs[r], rhs[r] = make([]float64, f.N()), make([]float64, f.N())
				for i := range rhs[r] {
					rhs[r][i] = 1 + float64(i%7)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, f := range factors {
					f.Solve(xs[r], rhs[r])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/entry")
		})
	}
}
