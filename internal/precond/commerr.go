package precond

import (
	"fmt"
	"math"

	"parapre/internal/dist"
	"parapre/internal/dsys"
)

// CommErrRecorder is implemented by preconditioners whose Apply runs
// distributed exchanges that can fail (the Schur-type inner solves, the
// Schwarz and overlapping-block halos). Apply cannot return an error — the
// krylov.Prec contract is a plain callback — so on an exchange failure the
// preconditioner poisons its output with NaN (breaking the outer recurrence
// down identically on every rank within one iteration) and records the
// first typed error here for the solve driver to join into the rank's
// result.
type CommErrRecorder interface {
	// TakeCommErr returns the first communication error recorded since
	// the last call and clears it.
	TakeCommErr() error
}

// poisonNaN floods v with NaN so the next replicated norm detects the
// failure as a breakdown on every rank simultaneously.
func poisonNaN(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}

// recvHalo receives one halo block of want values from peer, or returns nil
// after a failed receive (a dead peer, a tag that no longer pairs after a
// drop) or a block of another length, keeping the first such failure since
// the last TakeCommErr in *first as a *dsys.ExchangeError. The caller goes
// on to its other receives — leaving them in flight would mispair the next
// exchange — and poisons its output at the end. The charges are those of
// dist.Comm.Recv.
func recvHalo(c *dist.Comm, peer, tag, want int, first *error) []float64 {
	got, err := c.RecvErr(peer, tag)
	switch {
	case err != nil:
		err = &dsys.ExchangeError{Rank: c.Rank(), Peer: peer, Reason: "halo receive failed", Err: err}
	case len(got) != want:
		err = &dsys.ExchangeError{Rank: c.Rank(), Peer: peer,
			Reason: fmt.Sprintf("halo block length %d, want %d", len(got), want)}
	default:
		return got
	}
	if *first == nil {
		*first = err
	}
	return nil
}
