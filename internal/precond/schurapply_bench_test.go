package precond_test

import (
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/precond"
)

// BenchmarkSchurApply times one warm application of the two Schur
// preconditioners at the sizes and rank count of the warm_schur workload
// of benchmark/, all ranks on one world, and reports how many times an
// application applies the interface operator: one exchange each, so rank
// 0's messages over its sending neighbors. 5 is an inner GMRES(5) that
// spends its budget; an application whose inner solve meets its tolerance
// at the fifth iteration confirms it with a sixth.
func BenchmarkSchurApply(b *testing.B) {
	const p = 8
	for _, bc := range []struct {
		name, problem string
		size          int
		kind          precond.Kind
	}{
		{"tc1@129/Schur1", "tc1-poisson2d", 129, precond.KindSchur1},
		{"tc6@65/Schur2", "tc6-elasticity", 65, precond.KindSchur2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := cases.ByName(bc.problem)
			if err != nil {
				b.Fatal(err)
			}
			prob := c.Build(bc.size)
			cfg := core.DefaultConfig(p, bc.kind)
			part, err := core.Partition(prob, cfg)
			if err != nil {
				b.Fatal(err)
			}
			systems := dsys.Distribute(prob.A, prob.B, part, p)
			pcs := make([]precond.Preconditioner, p)
			for r, s := range systems {
				if bc.kind == precond.KindSchur1 {
					pcs[r], err = precond.NewSchur1(s, cfg.Schur1)
				} else {
					pcs[r], err = precond.NewSchur2(s, cfg.Schur2)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			apply := func(times int) int {
				tr := precond.NewTrafficTransport(p)
				_, err := dist.RunOpts(p, cfg.Machine, dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
					s := systems[c.Rank()]
					z := make([]float64, s.NLoc())
					for i := 0; i < times; i++ {
						pcs[c.Rank()].Apply(c, z, s.B)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				return tr.Sends[0]
			}
			apply(1) // fills the scratch pools
			b.ResetTimer()
			sent := apply(b.N)
			b.ReportMetric(float64(sent)/float64(precond.SendingNeighbors(systems[0]))/float64(b.N), "iface-applies/op")
		})
	}
}
