package dsys

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"parapre/internal/dist"
)

// Link is one peer of a Halo: the source entries packed for it, in send
// order, and the destination entries its block lands on, in the order the
// peer packs them. Either side may be empty — structurally unsymmetric
// patterns have one-way links.
type Link struct {
	Peer       int
	Send, Recv []int
}

// Halo is a neighbor-exchange pattern under one message tag: the only
// point-to-point communication of the method (the E_ij·y_j term of eq. 5
// and eq. 8, and the same pattern over a box for the Schwarz variants).
// Send order and receive order are both the order of Links, which every
// builder keeps ascending by peer rank.
type Halo struct {
	Tag   int
	Links []Link

	// buf is the staging buffer every send packs through, held as an
	// atomic lease: an exchange swaps the pointer out (allocating when
	// another solve holds it) and parks it back once the sends are posted.
	// dist.Comm.Send copies its payload, so one buffer serves all peers;
	// the lease keeps the steady state allocation-free for a single solve
	// and race-free when concurrent solves share the pattern (core.Session
	// serves simultaneous right-hand sides over one distribution, and the
	// sessions on one core.Problem share it). Seal makes it at the longest
	// send, so what the pattern holds is fixed before the first exchange;
	// the slice header is never written after: a reader that loads the
	// pointer (core's byte count) cannot race an exchange.
	buf atomic.Pointer[[]float64]
}

// Seal sizes the staging buffer at the longest send. A builder calls it
// once the links are final: the first exchange then allocates nothing, and
// the bytes the pattern holds do not change over a solve.
func (h *Halo) Seal() { h.buf.Store(h.stage()) }

// stage returns a new staging buffer as long as the longest send.
func (h *Halo) stage() *[]float64 {
	n := 0
	for _, l := range h.Links {
		n = max(n, len(l.Send))
	}
	b := make([]float64, n)
	return &b
}

// Link returns the link to peer, putting an empty one at its place in
// ascending peer order when there is none yet. The pointer is good until
// the next call.
func (h *Halo) Link(peer int) *Link {
	i := sort.Search(len(h.Links), func(i int) bool { return h.Links[i].Peer >= peer })
	if i == len(h.Links) || h.Links[i].Peer != peer {
		h.Links = slices.Insert(h.Links, i, Link{Peer: peer})
	}
	return &h.Links[i]
}

// ExchangeError describes a failed or corrupted neighbor exchange: a
// receive that returned a typed communicator error, a neighbor block of
// the wrong length, or a non-finite payload (injected corruption or a
// poisoned upstream vector). It wraps the underlying receive error, if
// any, for errors.As/Is inspection.
type ExchangeError struct {
	Rank   int
	Peer   int // -1 when the error is not tied to one neighbor
	Tag    int
	Reason string
	Err    error // underlying dist receive error (may be nil)
}

func (e *ExchangeError) Error() string {
	msg := fmt.Sprintf("dsys: rank %d exchange with rank %d (tag %d): %s", e.Rank, e.Peer, e.Tag, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying receive error.
func (e *ExchangeError) Unwrap() error { return e.Err }

// Exchange sends src[l.Send] to every peer and lands each peer's block on
// dst[l.Recv], overwriting it or, with add, accumulating into it. All
// sends are posted before the first receive, so a receive-side failure
// never strands a neighbor waiting for this rank's contribution, and every
// receive is drained even after a failure: returning early would leave the
// remaining blocks in flight and the next exchange — possibly of another
// tag — would mispair against them. Each block is validated (typed receive
// error, length, finiteness) before it touches dst; a rejected block
// leaves its entries as they were. The first failure is returned as an
// *ExchangeError. The charges are those of the Sends and Recvs; no span is
// opened — that is the caller's.
func (h *Halo) Exchange(c *dist.Comm, dst, src []float64, add bool) error {
	lease := h.buf.Swap(nil)
	if lease == nil {
		lease = h.stage()
	}
	for _, l := range h.Links {
		if len(l.Send) == 0 {
			continue
		}
		buf := (*lease)[:len(l.Send)]
		for k, i := range l.Send {
			buf[k] = src[i]
		}
		c.Send(l.Peer, h.Tag, buf)
	}
	h.buf.Store(lease) // a concurrent solve's lease is dropped here and collected
	var first error
	for _, l := range h.Links {
		if len(l.Recv) == 0 {
			continue
		}
		got, err := c.RecvErr(l.Peer, h.Tag)
		var reason string
		switch {
		case err != nil:
			reason = "receive failed"
		case len(got) != len(l.Recv):
			reason = fmt.Sprintf("neighbor block length %d, want %d", len(got), len(l.Recv))
		case !finite(got):
			reason = "non-finite payload"
		}
		switch {
		case reason != "":
			if first == nil {
				first = &ExchangeError{Rank: c.Rank(), Peer: l.Peer, Tag: h.Tag, Reason: reason, Err: err}
			}
		case add:
			for t, i := range l.Recv {
				dst[i] += got[t]
			}
		default:
			for t, i := range l.Recv {
				dst[i] = got[t]
			}
		}
	}
	return first
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// CommErr keeps the first communication failure of a preconditioner whose
// Apply exchanges with neighbors. Apply cannot return an error — the
// krylov.Prec contract is a plain callback — so the preconditioner poisons
// its output with NaN (breaking the outer recurrence down identically on
// every rank within one iteration) and records the typed cause here, for
// the solve driver to join into the rank's result. Embedding it is what
// makes a type a precond.CommErrRecorder.
type CommErr struct{ first error }

// Record keeps err unless it is nil or an earlier failure is still held.
func (r *CommErr) Record(err error) {
	if r.first == nil {
		r.first = err
	}
}

// TakeCommErr returns the first failure recorded since the last call and
// clears it.
func (r *CommErr) TakeCommErr() error {
	err := r.first
	r.first = nil
	return err
}
