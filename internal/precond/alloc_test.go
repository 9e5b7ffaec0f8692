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
		pc.Apply(c, z, s.B) // warms the workspace
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

// A steady-state Schur 1 application allocates nothing of its own: both
// B-solves and the interface GMRES run out of the scratch the rank leased
// on its first apply, and the interface products pack through the halo's
// staging buffer. Schur 1's interface lies between ranks, so this runs at
// P = 2, where what is left per apply are the transport's payload copies,
// one per message — counted over the whole world, because allocation
// counters are process-wide.
func TestSchur1ApplyZeroAllocSteadyState(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	const p = 2
	systems, _, _ := buildPoisson(t, 17, p, 1)
	pcs := make([]*Schur1, p)
	for r, s := range systems {
		pc, err := NewSchur1(s, DefaultSchur1())
		if err != nil {
			t.Fatal(err)
		}
		pcs[r] = pc
	}
	tr := NewTrafficTransport(p)
	got := make([]float64, p)
	_, err := dist.RunOpts(p, testMachine(), dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
		s := systems[c.Rank()]
		z := make([]float64, s.NLoc())
		// Both ranks run AllocsPerRun with the same run count, so the
		// inner iterations stay paired across the whole measurement.
		got[c.Rank()] = testing.AllocsPerRun(10, func() { pcs[c.Rank()].Apply(c, z, s.B) })
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := (tr.Sends[0] + tr.Sends[1]) / 11 // AllocsPerRun warms up once
	if msgs == 0 {
		t.Fatal("the application ran no interface exchange")
	}
	for r, g := range got {
		if g > float64(msgs) {
			t.Errorf("rank %d: %v allocations per Schur 1 apply, want at most the %d transport copies", r, g, msgs)
		}
	}
}

// A steady-state Schwarz application allocates nothing of its own: both
// halos pack through their leased staging buffers and the box CG runs out
// of the leased scratch. What is left per apply are the transport's
// payload copies, one per message, and what the two fast Poisson solves of
// CG(1) allocate inside the DST — counted over the whole world, because
// allocation counters are process-wide.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	pcs, systems := schwarzPair(t)
	var allowed float64
	for _, pc := range pcs {
		sw := pc.(*Schwarz)
		sc := sw.newScratch()
		allowed += 2 * testing.AllocsPerRun(10, func() { sw.pois.SolveTo(sc.wBox, sc.rBox) })
	}
	tr := NewTrafficTransport(2)
	got := make([]float64, 2)
	_, err := dist.RunOpts(2, testMachine(), dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
		s := systems[c.Rank()]
		z, r := make([]float64, s.NLoc()), make([]float64, s.NLoc())
		for i := range r {
			r[i] = 1
		}
		// Both ranks run AllocsPerRun with the same run count, so the
		// halos stay paired across the whole measurement.
		got[c.Rank()] = testing.AllocsPerRun(10, func() { pcs[c.Rank()].Apply(c, z, r) })
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := (tr.Sends[0] + tr.Sends[1]) / 11 // AllocsPerRun warms up once
	if msgs == 0 {
		t.Fatal("the boxes exchanged no halo")
	}
	for r, g := range got {
		if g > allowed+float64(msgs) {
			t.Errorf("rank %d: %v allocations per Schwarz apply, want at most the DST's %v and the %d transport copies",
				r, g, allowed, msgs)
		}
	}
}
