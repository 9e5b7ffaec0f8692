package precond

import (
	"testing"

	"parapre/internal/dist"
	"parapre/internal/par"
)

// A steady-state Schur 2 application on one rank allocates nothing:
// there is no neighbor to copy a payload for, the group solves write in
// place, the expanded-Schur GMRES runs out of its pooled workspace and
// its all-reduces fold in place. The transport wrapper only proves that
// the inner iteration ran.
func TestSchur2ApplyZeroAllocSteadyState(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	systems, _, _ := buildPoisson(t, 17, 1, 1)
	s := systems[0]
	pc, err := NewSchur2(s, DefaultSchur2())
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := pc.ExpandedSize(); g == 0 {
		t.Fatal("no grouped unknowns: the reduction path is not exercised")
	}
	tr := NewTrafficTransport(1)
	var got float64
	var reduces int
	_, err = dist.RunOpts(1, testMachine(), dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
		z := make([]float64, s.NLoc())
		pc.Apply(c, z, s.B) // warms the workspace and the level schedules
		before := tr.Reduces[0]
		pc.Apply(c, z, s.B)
		reduces = tr.Reduces[0] - before
		got = testing.AllocsPerRun(10, func() { pc.Apply(c, z, s.B) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if reduces == 0 {
		t.Fatal("the application ran no inner Schur iteration")
	}
	if got != 0 {
		t.Fatalf("Schur2.Apply allocates %v objects per steady-state call at P = 1 (%d all-reduces), want 0", got, reduces)
	}
}
