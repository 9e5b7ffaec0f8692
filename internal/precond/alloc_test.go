package precond

import (
	"testing"

	"parapre/internal/dist"
	"parapre/internal/par"
)

// countingTransport counts the collectives that pass through it.
type countingTransport struct {
	dist.Transport
	reduces int
}

func (t *countingTransport) Reduce(rank int, in []float64, clock float64, kind dist.ReduceKind) ([]float64, float64, error) {
	t.reduces++
	return t.Transport.Reduce(rank, in, clock, kind)
}

// A steady-state Schur 2 application on one rank allocates nothing of its
// own: there is no neighbor to copy a payload for, the group solves write
// in place, and the expanded-Schur GMRES runs out of its pooled workspace.
// What is left belongs to the transport — every all-reduce hands back a
// fresh result slice — so the application's count must be exactly that of
// the all-reduces it performs.
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
	tr := &countingTransport{Transport: dist.NewLoopback(1, 0)}
	var perReduce, got float64
	var reduces int
	_, err = dist.RunOpts(1, testMachine(), dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
		z := make([]float64, s.NLoc())
		pc.Apply(c, z, s.B) // warms the workspace and the level schedules
		perReduce = testing.AllocsPerRun(10, func() { c.AllReduceSum(1) })
		before := tr.reduces
		pc.Apply(c, z, s.B)
		reduces = tr.reduces - before
		got = testing.AllocsPerRun(10, func() { pc.Apply(c, z, s.B) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if reduces == 0 {
		t.Fatal("the application ran no inner Schur iteration")
	}
	if own := got - perReduce*float64(reduces); own != 0 {
		t.Fatalf("Schur2.Apply allocates %v objects per steady-state call at P = 1, %v of them its own (%d all-reduces at %v each), want 0",
			got, own, reduces, perReduce)
	}
}
