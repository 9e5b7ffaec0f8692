package precond

import (
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/krylov"
)

// TrafficTransport is the in-process transport with a count, per rank, of
// the messages sent and the collectives entered. Every rank writes its
// own slot only. (Exported for the benchmark in package precond_test.)
type TrafficTransport struct {
	dist.Transport
	Sends, Reduces []int
}

func NewTrafficTransport(p int) *TrafficTransport {
	return &TrafficTransport{Transport: dist.NewLoopback(p, 0), Sends: make([]int, p), Reduces: make([]int, p)}
}

func (t *TrafficTransport) Send(from, to int, m dist.Message) error {
	t.Sends[from]++
	return t.Transport.Send(from, to, m)
}

func (t *TrafficTransport) Reduce(rank int, x []float64, clock float64, kind dist.ReduceKind) (float64, error) {
	t.Reduces[rank]++
	return t.Transport.Reduce(rank, x, clock, kind)
}

// applyCount is what one preconditioner application cost one rank:
// messages, all-reduces, and the operator and preconditioner applications
// of its inner solves as their workspaces counted them.
type applyCount struct {
	sends, reduces int
	inner          map[string][2]int // workspace name → {operator, preconditioner} applications
}

// scratchApply is one rank's preconditioner applied through its unexported
// apply on a scratch kept across calls, with the inner solvers' workspaces
// of that scratch by name.
type scratchApply struct {
	apply      func(c *dist.Comm, z, r []float64)
	workspaces map[string]*krylov.Workspace
}

// countOneApply runs two collective applications of the per-rank
// preconditioners — the first warms the scratch — and returns what the
// second one cost every rank.
func countOneApply(t *testing.T, systems []*dsys.System, ranks []scratchApply) []applyCount {
	t.Helper()
	p := len(systems)
	tr := NewTrafficTransport(p)
	out := make([]applyCount, p)
	_, err := dist.RunOpts(p, testMachine(), dist.WorldOptions{Transport: tr}, func(c *dist.Comm) {
		r := c.Rank()
		s := systems[r]
		z := make([]float64, s.NLoc())
		ranks[r].apply(c, z, s.B)
		sends, reduces := tr.Sends[r], tr.Reduces[r]
		before := map[string][2]int{}
		for name, ws := range ranks[r].workspaces {
			ops, precs := ws.Applied()
			before[name] = [2]int{ops, precs}
		}
		ranks[r].apply(c, z, s.B)
		out[r] = applyCount{sends: tr.Sends[r] - sends, reduces: tr.Reduces[r] - reduces, inner: map[string][2]int{}}
		for name, ws := range ranks[r].workspaces {
			ops, precs := ws.Applied()
			out[r].inner[name] = [2]int{ops - before[name][0], precs - before[name][1]}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// SendingNeighbors is the number of messages one interface exchange of
// rank s sends.
func SendingNeighbors(s *dsys.System) int {
	n := 0
	for _, nb := range s.Neigh {
		if len(nb.SendIdx) > 0 {
			n++
		}
	}
	return n
}

// TestInnerSolveApplicationCounts pins what one preconditioner
// application applies when its inner solves spend their whole budget (the
// tolerances are set to zero so that they do): every inner solve starts
// from the right-hand side instead of applying its operator to the zero
// guess, and returns from its last iteration instead of forming a residual
// nobody reads.
//
//	Schur 1, interface GMRES(5):  5 operator applications (each one
//	    exchange, one pass over C, E, F and one B̃ sweep), 6 sweeps of
//	    the trailing factors, 21 all-reduces
//	Schur 1, each B-solve GMRES(3): 3 B SpMVs, 4 B̃ sweeps; two per apply,
//	    so 6 B SpMVs and 8 + 5 = 13 B̃ sweeps in all
//	Schur 2, interface GMRES(5): 5 operator applications and
//	    exchanges, 6 sweeps, 21 all-reduces
//	Schwarz, CG(1): 1 box SpMV, 2 fast Poisson solves
//
// Before the two rules the same applications ran 7, 5 and 2 operator
// applications and 22 all-reduces.
func TestInnerSolveApplicationCounts(t *testing.T) {
	const p = 4
	systems, _, _ := buildPoisson(t, 17, p, 1)
	checkIface := func(name string, counts []applyCount) {
		t.Helper()
		for r, got := range counts {
			if want := 5 * SendingNeighbors(systems[r]); got.sends != want {
				t.Errorf("%s rank %d: %d messages per apply, want %d (5 exchanges)", name, r, got.sends, want)
			}
			if got.reduces != 21 {
				t.Errorf("%s rank %d: %d all-reduces per apply, want 21", name, r, got.reduces)
			}
		}
	}
	checkInner := func(name string, counts []applyCount, ws string, ops, precs int) {
		t.Helper()
		for r, got := range counts {
			if got.inner[ws] != [2]int{ops, precs} {
				t.Errorf("%s rank %d, %s solve: %d operator and %d preconditioner applications per apply, want %d and %d",
					name, r, ws, got.inner[ws][0], got.inner[ws][1], ops, precs)
			}
		}
	}

	s1 := DefaultSchur1()
	s1.SchurTol, s1.InnerTol = 0, 0
	ranks := make([]scratchApply, p)
	for r, s := range systems {
		pc, err := NewSchur1(s, s1)
		if err != nil {
			t.Fatal(err)
		}
		sc := pc.newScratch()
		ranks[r] = scratchApply{func(c *dist.Comm, z, r []float64) { pc.apply(c, sc, z, r) },
			map[string]*krylov.Workspace{"interface": &sc.iface.Krylov, "B": &sc.wsB}}
	}
	counts := countOneApply(t, systems, ranks)
	checkIface("Schur 1", counts)
	checkInner("Schur 1", counts, "interface", 5, 6)
	checkInner("Schur 1", counts, "B", 2*3, 2*4)

	s2 := DefaultSchur2()
	s2.SchurTol = 0
	for r, s := range systems {
		pc, err := NewSchur2(s, s2)
		if err != nil {
			t.Fatal(err)
		}
		sc := pc.newScratch()
		ranks[r] = scratchApply{func(c *dist.Comm, z, r []float64) { pc.apply(c, sc, z, r) },
			map[string]*krylov.Workspace{"interface": &sc.iface.Krylov}}
	}
	counts = countOneApply(t, systems, ranks)
	checkIface("Schur 2", counts)
	checkInner("Schur 2", counts, "interface", 5, 6)

	const m, px, py = 16, 2, 2
	boxes, a, _ := buildPoissonBoxes(t, m, px, py)
	all := make([]*Schwarz, p)
	for r := range all {
		sw, err := NewSchwarz(boxes[r], a, DefaultSchwarz(m, px, py, false))
		if err != nil {
			t.Fatal(err)
		}
		sc := sw.newScratch()
		all[r] = sw
		ranks[r] = scratchApply{func(c *dist.Comm, z, r []float64) { sw.apply(c, sc, z, r) },
			map[string]*krylov.Workspace{"box": &sc.ws}}
	}
	if err := WireHalo(all); err != nil {
		t.Fatal(err)
	}
	counts = countOneApply(t, boxes, ranks)
	checkInner("Schwarz", counts, "box", 1, 2)
}
