package core_test

import (
	"math"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/par"
	"parapre/internal/precond"
)

// BenchmarkSessionBytesPerUnknown reports, per preconditioner kind, the
// least and the most bytes per unknown a session and its problem hold
// together after one solve (Problem.Bytes + Session.Bytes), over the seven
// cases at their default sizes and P = 4 and 16, one worker, each session
// on a problem of its own: what admission's one KiB per unknown is set
// against (DESIGN §18). One pass is the measurement:
//
//	go test ./internal/core -run '^$' -bench SessionBytesPerUnknown -benchtime 1x
func BenchmarkSessionBytesPerUnknown(b *testing.B) {
	defer par.SetWorkers(par.SetWorkers(1))
	for _, kind := range precond.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			least, most := math.Inf(1), 0.0
			for i := 0; i < b.N; i++ {
				for _, c := range cases.All() {
					for _, p := range []int{4, 16} {
						prob := c.Build(c.DefaultSize)
						sess, err := core.NewSession(prob, core.DefaultConfig(p, kind))
						if err != nil {
							b.Fatalf("%s %s P %d: %v", prob.Name, kind, p, err)
						}
						if _, err := sess.Solve(nil); err != nil {
							b.Fatalf("%s %s P %d: %v", prob.Name, kind, p, err)
						}
						per := float64(prob.Bytes()+sess.Bytes()) / float64(prob.A.Rows)
						least, most = min(least, per), max(most, per)
					}
				}
			}
			b.ReportMetric(least, "least-B/unknown")
			b.ReportMetric(most, "most-B/unknown")
		})
	}
}
