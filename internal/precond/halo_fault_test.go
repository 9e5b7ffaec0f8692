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

// schwarzPair builds additive Schwarz over two side-by-side boxes.
func schwarzPair(t *testing.T) ([]Preconditioner, []*dsys.System) {
	t.Helper()
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
	return pcs, systems
}

// overlapPair builds Block 2 with one overlap level over two subdomains.
func overlapPair(t *testing.T) ([]Preconditioner, []*dsys.System) {
	t.Helper()
	systems, a, _ := buildPoisson(t, 9, 2, 21)
	blocks, err := BuildOverlapBlocks(a, systems, OverlapOptions{Levels: 1, ILUT: ilu.DefaultILUT()})
	if err != nil {
		t.Fatal(err)
	}
	return []Preconditioner{blocks[0], blocks[1]}, systems
}

func TestSchwarzHaloDeadPeerIsTypedError(t *testing.T) {
	pcs, systems := schwarzPair(t)
	// Rank 1 sends its residual halo and dies: rank 0's first receive
	// succeeds, the scatter-add one finds the peer gone.
	applyBesideDeadPeer(t, pcs, systems, 1)
}

func TestOverlapHaloDeadPeerIsTypedError(t *testing.T) {
	pcs, systems := overlapPair(t)
	// One whole apply is three operations (send, receive, solve): rank 1
	// dies before its second send.
	applyBesideDeadPeer(t, pcs, systems, 3)
}

// TestHaloNaNIsTypedError: a NaN that reaches a rank through a Schwarz or
// overlap halo — injected corruption, or a neighbor whose residual is
// already poisoned — is refused at the receive and named: the rank's
// output is poisoned and the recorded cause is a *dsys.ExchangeError with
// the peer and the halo's tag, where it used to flow into the subdomain
// solve and come out as a breakdown nobody could attribute.
func TestHaloNaNIsTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) ([]Preconditioner, []*dsys.System)
		tag   int
	}{
		{"Schwarz", schwarzPair, tagHaloR},
		{"overlap", overlapPair, tagOverlapR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pcs, systems := tc.build(t)
			var z0 []float64
			var taken error
			dist.Run(2, testMachine(), func(c *dist.Comm) {
				s := systems[c.Rank()]
				z, r := make([]float64, s.NLoc()), make([]float64, s.NLoc())
				for i := range r {
					r[i] = 1
					if c.Rank() == 1 {
						r[i] = math.NaN()
					}
				}
				pcs[c.Rank()].Apply(c, z, r)
				if c.Rank() == 0 {
					z0, taken = z, pcs[0].(CommErrRecorder).TakeCommErr()
				}
			})
			for i, v := range z0 {
				if !math.IsNaN(v) {
					t.Fatalf("z[%d] = %v after a refused halo block, want the whole output poisoned", i, v)
				}
			}
			var ex *dsys.ExchangeError
			if !errors.As(taken, &ex) || ex.Rank != 0 || ex.Peer != 1 || ex.Tag != tc.tag || ex.Reason != "non-finite payload" {
				t.Fatalf("recorded %v, want a *dsys.ExchangeError of rank 0 naming peer 1, tag %d and a non-finite payload", taken, tc.tag)
			}
		})
	}
}
