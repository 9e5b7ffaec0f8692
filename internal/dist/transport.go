package dist

import (
	"errors"
	"fmt"
)

// Message is one point-to-point payload in flight between two ranks,
// together with the sender-side virtual timestamp. FDelay is the portion
// of the timestamp that is injected fault jitter rather than modeled
// communication, so the receiver can book its wait in the right Stats
// bucket.
type Message struct {
	Tag    int
	Data   []float64
	Time   float64
	FDelay float64
}

// ReduceKind names a collective fold. Transports must apply the fold in
// ascending rank order so floating-point collective results are
// bit-identical regardless of scheduling — the determinism contract every
// layer above relies on.
type ReduceKind int

// The collective folds the communicator needs. ReduceSum also carries
// Barrier (empty vectors) and AllGather (sum of zero-padded slots).
const (
	ReduceSum ReduceKind = iota
	ReduceMax
	ReduceMin
)

// reduceOp returns the element-wise fold of the given kind.
func reduceOp(kind ReduceKind) func(acc, in []float64) {
	switch kind {
	case ReduceMax:
		return func(acc, in []float64) {
			for i := range acc {
				if in[i] > acc[i] {
					acc[i] = in[i]
				}
			}
		}
	case ReduceMin:
		return func(acc, in []float64) {
			for i := range acc {
				if in[i] < acc[i] {
					acc[i] = in[i]
				}
			}
		}
	default:
		return func(acc, in []float64) {
			for i := range acc {
				acc[i] += in[i]
			}
		}
	}
}

// Sentinel errors a Transport uses to report world-level conditions. The
// Comm layer translates them: ErrWorldAborted unwinds the rank with the
// internal abort panic, ErrPeerGone becomes a *PeerCrashedError carrying
// the rank/peer/tag context only the Comm knows.
var (
	// ErrWorldAborted reports that the world was torn down (watchdog
	// deadlock, rank panic, typed communication failure) while the
	// operation was blocked.
	ErrWorldAborted = errors.New("dist: world aborted")
	// ErrPeerGone reports that the peer of a point-to-point operation is
	// dead (a hard-crashed rank) with no message left in flight.
	ErrPeerGone = errors.New("dist: peer gone")
)

// Transport carries every rank-to-rank interaction of one world: the
// point-to-point message streams and the combining collectives. The one
// implementation is the in-process channel transport (goroutine ranks);
// tests wrap it to count traffic.
//
// Semantics every implementation must provide:
//
//   - Send blocks only on backpressure and returns nil once the message
//     is accepted for delivery; a send to a dead peer is silently
//     discarded (the message could never be read).
//   - Recv blocks until a message from the given sender is available and
//     delivers messages of one ordered pair in send order.
//   - Reduce is a combining barrier, in place: every rank contributes
//     the contents of x once per wave (equal lengths on all ranks), the
//     fold runs in ascending rank order (see reduceOp), and on a nil
//     error every rank finds the folded vector in x and receives the
//     maximum deposited clock. On error x keeps the contribution.
//   - Abort releases every blocked rank; blocked and subsequent
//     operations return ErrWorldAborted.
//   - MarkCrashed declares one rank dead: its peers' pending receives
//     drain any in-flight messages and then fail with ErrPeerGone.
type Transport interface {
	Send(from, to int, m Message) error
	Recv(to, from int) (Message, error)
	Reduce(rank int, x []float64, clock float64, kind ReduceKind) (float64, error)
	MarkCrashed(rank int)
	Abort()
}

// chanTransport is the in-process channel transport: P rank goroutines in
// one address space, one buffered channel per ordered pair, a combining
// reducer for collectives. It is the default and preserves the historical
// semantics and virtual-time model bit-for-bit.
type chanTransport struct {
	p         int
	chans     []chan Message // chans[from*p+to]
	done      chan struct{}  // closed on Abort
	crashedCh []chan struct{}
	red       *reducer
}

// NewLoopback creates the in-process channel transport for a world of p
// ranks with the given per-ordered-pair buffer depth (0 means
// DefaultBufferDepth). It is exported so test wrappers can compose with
// it; NewWorldOpts installs one automatically when WorldOptions.Transport
// is nil.
func NewLoopback(p, depth int) Transport {
	if p < 1 {
		panic(fmt.Sprintf("dist: loopback transport size %d", p))
	}
	if depth <= 0 {
		depth = DefaultBufferDepth
	}
	t := &chanTransport{
		p:         p,
		chans:     make([]chan Message, p*p),
		done:      make(chan struct{}),
		crashedCh: make([]chan struct{}, p),
		red:       newReducer(p),
	}
	for i := range t.chans {
		t.chans[i] = make(chan Message, depth)
	}
	for r := range t.crashedCh {
		t.crashedCh[r] = make(chan struct{})
	}
	return t
}

// Send delivers m on the (from, to) channel. It blocks only when the
// buffer is full, stays cancellable on world abort, and discards the
// message if the receiver has crashed (it would never be read).
func (t *chanTransport) Send(from, to int, m Message) error {
	ch := t.chans[from*t.p+to]
	select {
	case ch <- m:
	default:
		select {
		case ch <- m:
		case <-t.done:
			return ErrWorldAborted
		case <-t.crashedCh[to]:
		}
	}
	return nil
}

// Recv blocks for the next message from the given sender, waking on world
// abort or on the peer crashing. A crashed peer may still have messages
// in flight, so those are drained before the peer is declared dead.
func (t *chanTransport) Recv(to, from int) (Message, error) {
	ch := t.chans[from*t.p+to]
	select {
	case m := <-ch:
		return m, nil
	default:
		select {
		case m := <-ch:
			return m, nil
		case <-t.done:
			return Message{}, ErrWorldAborted
		case <-t.crashedCh[from]:
			select {
			case m := <-ch:
				return m, nil
			default:
				return Message{}, ErrPeerGone
			}
		}
	}
}

// Reduce runs one wave of the combining barrier.
func (t *chanTransport) Reduce(rank int, x []float64, clock float64, kind ReduceKind) (float64, error) {
	return t.red.reduce(rank, x, clock, reduceOp(kind))
}

// MarkCrashed wakes every peer blocked on the crashed rank.
func (t *chanTransport) MarkCrashed(rank int) {
	close(t.crashedCh[rank])
}

// Abort releases every rank blocked in a channel operation or collective.
func (t *chanTransport) Abort() {
	close(t.done)
	t.red.abort()
}
