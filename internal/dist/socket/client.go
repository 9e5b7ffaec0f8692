package socket

import (
	"net"
	"sync"
	"time"

	"parapre/internal/ckpt"
	"parapre/internal/dist"
)

// Options tunes a client connection.
type Options struct {
	// OpTimeout bounds each transport operation; 0 means
	// DefaultOpTimeout. It is also the transport's Grace.
	OpTimeout time.Duration
}

// Client is one rank's end of the socket transport: it implements
// dist.Transport over a single hub connection, and ckpt.Sink by
// forwarding checkpoint shards to the hub (which owns the file writer).
//
// A Client serves exactly one rank: Send's from and Recv's to must equal
// the rank it was dialed with (the SPMD worker shape — each process hosts
// one rank).
type Client struct {
	p    int
	rank int
	conn net.Conn
	opt  Options

	wmu sync.Mutex // serializes frame writes

	dataCh     []chan dist.Message // per-sender in-order queues
	redCh      chan redReply       // collective replies, in wave order
	abortCh    chan struct{}       // closed on world abort
	crashedCh  []chan struct{}     // closed when that peer is declared dead
	anyCrashed chan struct{}       // closed on the first dead peer (collectives can never complete)

	closeOnce sync.Once
	abortOnce sync.Once
	crashMu   sync.Mutex

	readerDone chan struct{}
	readErr    error // set before readerDone closes
}

type redReply struct {
	vec  []float64
	maxT float64
}

// queueDepth is the per-sender buffered depth of the client's receive
// queues. The reader goroutine blocks when a queue fills, pushing
// backpressure onto the hub connection — the socket analogue of the
// in-process transport's bounded channel buffers.
const queueDepth = 4096

// Dial connects rank to the hub at network/addr, retrying with
// exponential backoff while the hub's listener comes up. The returned
// Client is ready for transport use once Dial returns (the hello frame
// has been sent).
func Dial(network, addr string, p, rank int, opt Options) (*Client, error) {
	if opt.OpTimeout <= 0 {
		opt.OpTimeout = DefaultOpTimeout
	}
	var conn net.Conn
	var err error
	backoff := dialBackoffMin
	attempts := 0
	for attempts < dialAttempts {
		attempts++
		conn, err = net.DialTimeout(network, addr, opt.OpTimeout)
		if err == nil {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
	if err != nil {
		return nil, &ConnectError{Network: network, Addr: addr, Attempts: attempts, Err: err}
	}
	c := &Client{
		p:          p,
		rank:       rank,
		conn:       conn,
		opt:        opt,
		dataCh:     make([]chan dist.Message, p),
		redCh:      make(chan redReply, 4),
		abortCh:    make(chan struct{}),
		crashedCh:  make([]chan struct{}, p),
		anyCrashed: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	for i := range c.dataCh {
		c.dataCh[i] = make(chan dist.Message, queueDepth)
		c.crashedCh[i] = make(chan struct{})
	}
	var w wire
	w.u8(fHello)
	w.u32(uint32(rank))
	if err := c.write(w.buf); err != nil {
		_ = conn.Close() // the hello failure wins
		return nil, &ConnectError{Network: network, Addr: addr, Attempts: attempts, Err: err}
	}
	go c.readLoop()
	return c, nil
}

// write sends one frame under the writer lock with a write deadline.
func (c *Client) write(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// Deadline arming only fails on a closed connection, which the write
	// below reports anyway.
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opt.OpTimeout))
	return writeFrame(c.conn, payload)
}

// readLoop demultiplexes incoming frames into the per-sender queues, the
// collective reply queue, and the crash/abort signals. It exits on any
// read error (including the hub closing), recording the error and waking
// every blocked operation.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		payload, err := readFrame(c.conn)
		if err != nil {
			c.readErr = err
			return
		}
		u := &unwire{buf: payload}
		switch u.u8() {
		case fData:
			from := int(u.u32())
			u.u32() // to == c.rank by construction
			m := dist.Message{Tag: int(u.i64()), Time: u.f64(), FDelay: u.f64(), Data: u.vec()}
			if u.err != nil || from < 0 || from >= c.p {
				c.readErr = &ProtocolError{Reason: "malformed data frame"}
				return
			}
			select {
			case c.dataCh[from] <- m:
			case <-c.abortCh:
			}
		case fReduceReply:
			maxT := u.f64()
			vec := u.vec()
			if u.err != nil {
				c.readErr = &ProtocolError{Reason: "malformed reduce reply"}
				return
			}
			select {
			case c.redCh <- redReply{vec: vec, maxT: maxT}:
			case <-c.abortCh:
			}
		case fPeerGone:
			r := int(u.u32())
			if u.err != nil || r < 0 || r >= c.p {
				c.readErr = &ProtocolError{Reason: "malformed peer-gone frame"}
				return
			}
			c.markCrashedLocal(r)
		case fAbort:
			c.abortLocal()
		default:
			c.readErr = &ProtocolError{Reason: "unknown frame type"}
			return
		}
	}
}

func (c *Client) markCrashedLocal(r int) {
	c.crashMu.Lock()
	defer c.crashMu.Unlock()
	select {
	case <-c.crashedCh[r]:
	default:
		close(c.crashedCh[r])
	}
	if r != c.rank {
		select {
		case <-c.anyCrashed:
		default:
			close(c.anyCrashed)
		}
	}
}

func (c *Client) abortLocal() {
	c.abortOnce.Do(func() { close(c.abortCh) })
}

// Send forwards the message to the hub, which routes it to the receiver.
func (c *Client) Send(from, to int, m dist.Message) error {
	select {
	case <-c.abortCh:
		return dist.ErrWorldAborted
	default:
	}
	var w wire
	w.u8(fData)
	w.u32(uint32(from))
	w.u32(uint32(to))
	w.i64(int64(m.Tag))
	w.f64(m.Time)
	w.f64(m.FDelay)
	w.vec(m.Data)
	if err := c.write(w.buf); err != nil {
		return &OpError{Op: "send", Rank: c.rank, Peer: to, Timeout: isTimeout(err), Err: err}
	}
	return nil
}

// Recv blocks for the next message from the given sender, with the same
// drain-then-fail semantics on a dead peer as the in-process transport,
// plus a per-op deadline.
func (c *Client) Recv(to, from int) (dist.Message, error) {
	ch := c.dataCh[from]
	select {
	case m := <-ch:
		return m, nil
	default:
	}
	timer := time.NewTimer(c.opt.OpTimeout)
	defer timer.Stop()
	select {
	case m := <-ch:
		return m, nil
	case <-c.abortCh:
		return dist.Message{}, dist.ErrWorldAborted
	case <-c.crashedCh[from]:
		select {
		case m := <-ch:
			return m, nil
		default:
			return dist.Message{}, dist.ErrPeerGone
		}
	case <-c.readerDone:
		return dist.Message{}, &OpError{Op: "recv", Rank: c.rank, Peer: from, Err: c.readErr}
	case <-timer.C:
		return dist.Message{}, &OpError{Op: "recv", Rank: c.rank, Peer: from, Timeout: true}
	}
}

// Reduce contributes the contents of x to the current collective wave,
// blocks for the hub's rank-order fold and stores it into x.
func (c *Client) Reduce(rank int, x []float64, clock float64, kind dist.ReduceKind) (float64, error) {
	var w wire
	w.u8(fReduce)
	w.u32(uint32(rank))
	w.u8(byte(kind))
	w.f64(clock)
	w.vec(x)
	if err := c.write(w.buf); err != nil {
		return 0, &OpError{Op: "reduce", Rank: c.rank, Peer: -1, Timeout: isTimeout(err), Err: err}
	}
	// folded stores a reply into x; the hub folds equal-length
	// contributions, so any other length is a protocol violation.
	folded := func(r redReply) (float64, error) {
		if len(r.vec) != len(x) {
			return 0, &OpError{Op: "reduce", Rank: c.rank, Peer: -1,
				Err: &ProtocolError{Reason: "reduce reply length differs from the contribution"}}
		}
		copy(x, r.vec)
		return r.maxT, nil
	}
	timer := time.NewTimer(c.opt.OpTimeout)
	defer timer.Stop()
	select {
	case r := <-c.redCh:
		return folded(r)
	case <-c.abortCh:
		return 0, dist.ErrWorldAborted
	case <-c.anyCrashed:
		// The hub may have folded and replied to this wave before the peer
		// died; prefer the completed result over the failure.
		select {
		case r := <-c.redCh:
			return folded(r)
		default:
			return 0, dist.ErrPeerGone
		}
	case <-c.readerDone:
		return 0, &OpError{Op: "reduce", Rank: c.rank, Peer: -1, Err: c.readErr}
	case <-timer.C:
		return 0, &OpError{Op: "reduce", Rank: c.rank, Peer: -1, Timeout: true}
	}
}

// MarkCrashed tells the hub this rank is dead by plan; the hub broadcasts
// peer-gone to the survivors.
func (c *Client) MarkCrashed(rank int) {
	c.markCrashedLocal(rank)
	var w wire
	w.u8(fCrashed)
	w.u32(uint32(rank))
	_ = c.write(w.buf) // crash notification is best-effort by design
}

// Abort tears the world down: local wake-up first, then a best-effort
// abort frame so the hub releases the other ranks.
func (c *Client) Abort() {
	c.abortLocal()
	var w wire
	w.u8(fAbort)
	_ = c.write(w.buf) // the hub also aborts on seeing our connection close
}

// Grace is the per-op deadline: the watchdog must allow each healthy
// operation up to this much wall time.
func (c *Client) Grace() time.Duration { return c.opt.OpTimeout }

// Close announces a clean departure to the hub (so the connection drop
// that follows is not mistaken for a process death) and shuts the
// connection down; blocked operations fail with their per-op errors as
// the reader exits.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		var w wire
		w.u8(fBye)
		// The goodbye is best-effort; a failed write reads as a death,
		// which only costs a spurious respawn.
		_ = c.write(w.buf)
		err = c.conn.Close()
	})
	return err
}

// PutShard implements ckpt.Sink by forwarding the shard to the hub, which
// assembles complete checkpoints and owns the durable file. The shard is
// serialized as a single-rank checkpoint in the canonical ckpt codec.
func (c *Client) PutShard(seq, iter uint64, p int, rs *ckpt.RankState) error {
	data := ckpt.Encode(&ckpt.Checkpoint{Seq: seq, Iter: iter, Ranks: []ckpt.RankState{*rs}})
	var w wire
	w.u8(fShard)
	w.u32(uint32(len(data)))
	w.buf = append(w.buf, data...)
	if err := c.write(w.buf); err != nil {
		return &OpError{Op: "shard", Rank: c.rank, Peer: -1, Timeout: isTimeout(err), Err: err}
	}
	return nil
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
