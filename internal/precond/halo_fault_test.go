package precond

import (
	"errors"
	"math"
	"testing"
	"time"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
)

// applyBesideDeadPeer applies rank 0's preconditioner until its halo fails
// while rank 1 dies after crashAfter operations, under the supervised
// runtime. Rank 0 must come back from every Apply — no panic, whose typed
// value the runtime would return in place of the plain *dist.CrashError —
// with its output poisoned and the failed link recorded behind
// CommErrRecorder as a *dsys.ExchangeError wrapping the receive's
// *dist.PeerCrashedError.
func applyBesideDeadPeer(t *testing.T, pcs []Preconditioner, systems []*dsys.System, crashAfter int) {
	t.Helper()
	var z0 []float64
	var taken, again error
	opts := dist.WorldOptions{Faults: &dist.FaultPlan{CrashRank: 1, CrashAfterOps: crashAfter}, Watchdog: 2 * time.Second}
	_, err := dist.RunOpts(2, testMachine(), opts, func(c *dist.Comm) {
		s := systems[c.Rank()]
		z, r := make([]float64, s.NLoc()), make([]float64, s.NLoc())
		for i := range r {
			r[i] = 1
		}
		for k := 0; k < 3; k++ { // rank 1 dies inside one of them
			pcs[c.Rank()].Apply(c, z, r)
			if c.Rank() == 0 && math.IsNaN(z[0]) {
				break
			}
		}
		if c.Rank() == 0 {
			rec := pcs[0].(CommErrRecorder)
			z0, taken, again = z, rec.TakeCommErr(), rec.TakeCommErr()
		}
	})
	var crash *dist.CrashError
	var escaped *dist.PeerCrashedError
	if !errors.As(err, &crash) || errors.As(err, &escaped) {
		t.Fatalf("world error %v, want the planned crash of rank 1 and nothing a survivor panicked with", err)
	}
	for i, v := range z0 {
		if !math.IsNaN(v) {
			t.Fatalf("z[%d] = %v after a failed halo, want the whole output poisoned", i, v)
		}
	}
	var ex *dsys.ExchangeError
	var gone *dist.PeerCrashedError
	if !errors.As(taken, &ex) || ex.Rank != 0 || ex.Peer != 1 || !errors.As(taken, &gone) {
		t.Fatalf("recorded %v, want a *dsys.ExchangeError of rank 0 with peer 1 wrapping a *dist.PeerCrashedError", taken)
	}
	if again != nil {
		t.Fatalf("TakeCommErr did not clear the error: %v", again)
	}
}

func TestSchwarzHaloDeadPeerIsTypedError(t *testing.T) {
	const m = 9
	systems, a, _ := buildPoissonBoxes(t, m, 2, 1)
	all := make([]*Schwarz, 2)
	pcs := make([]Preconditioner, 2)
	for r := range all {
		sw, err := NewSchwarz(systems[r], a, DefaultSchwarz(m, 2, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		all[r], pcs[r] = sw, sw
	}
	if err := WireHalo(all); err != nil {
		t.Fatal(err)
	}
	// Rank 1 sends its residual halo and dies: rank 0's first receive
	// succeeds, the scatter-add one finds the peer gone.
	applyBesideDeadPeer(t, pcs, systems, 1)
}

func TestOverlapHaloDeadPeerIsTypedError(t *testing.T) {
	systems, a, _ := buildPoisson(t, 9, 2, 21)
	part := make([]int, a.Rows)
	for r, s := range systems {
		for _, g := range s.GlobalIDs {
			part[g] = r
		}
	}
	blocks, err := BuildOverlapBlocks(a, part, systems, OverlapOptions{Levels: 1, ILUT: ilu.DefaultILUT()})
	if err != nil {
		t.Fatal(err)
	}
	// One whole apply is three operations (send, receive, solve): rank 1
	// dies before its second send.
	applyBesideDeadPeer(t, []Preconditioner{blocks[0], blocks[1]}, systems, 3)
}
