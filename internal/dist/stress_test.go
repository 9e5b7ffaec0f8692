package dist

import (
	"math/rand"
	"testing"
)

// TestManyRanksMixedTraffic stresses the communicator with 32 ranks doing
// interleaved point-to-point rings and collectives — a miniature of what
// a full preconditioned solve does, checking nothing deadlocks and all
// values arrive intact.
func TestManyRanksMixedTraffic(t *testing.T) {
	const p = 32
	const rounds = 25
	stats := Run(p, testMachine(), func(c *Comm) {
		r := c.Rank()
		next := (r + 1) % p
		prev := (r + p - 1) % p
		acc := float64(r)
		for round := 0; round < rounds; round++ {
			c.Send(next, round, []float64{acc})
			got := c.Recv(prev, round)
			acc = got[0] + 1
			// Interleave a collective every few rounds.
			if round%3 == 0 {
				sum := c.AllReduceSum(acc)
				if sum <= 0 {
					t.Errorf("rank %d round %d: sum %v", r, round, sum)
					return
				}
			}
		}
		// After `rounds` ring hops, the value originated at rank
		// (r − rounds) mod p and gained +1 per hop.
		want := float64((r-rounds%p+p)%p + rounds)
		if acc != want {
			t.Errorf("rank %d: acc %v, want %v", r, acc, want)
		}
	})
	for _, s := range stats {
		if s.MsgsSent != rounds {
			t.Fatalf("rank %d sent %d messages, want %d", s.Rank, s.MsgsSent, rounds)
		}
	}
}

// TestClockMonotone verifies that a rank's virtual clock never decreases
// across a random sequence of operations.
func TestClockMonotone(t *testing.T) {
	const p = 4
	Run(p, testMachine(), func(c *Comm) {
		// All ranks draw the same operation sequence (collectives must be
		// called in the same order everywhere); only the Compute amounts
		// differ per rank.
		rng := rand.New(rand.NewSource(99))
		last := 0.0
		check := func() {
			now := c.Stats().Clock
			if now < last {
				t.Errorf("rank %d: clock went backwards: %v -> %v", c.Rank(), last, now)
			}
			last = now
		}
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Compute(float64(rng.Intn(1000) * (c.Rank() + 1)))
			case 1:
				c.Barrier()
			case 2:
				c.AllReduceSum(1)
			}
			check()
		}
	})
}

// TestCollectiveOrderIndependence: the deterministic rank-ordered
// combining must give identical results across repeated runs even though
// goroutine arrival order varies.
func TestCollectiveOrderIndependence(t *testing.T) {
	const p = 8
	run := func() []float64 {
		out := make([]float64, p)
		Run(p, testMachine(), func(c *Comm) {
			// Rank-dependent fp values whose sum depends on order.
			v := 1e-16 * float64(c.Rank()*c.Rank())
			if c.Rank() == 0 {
				v = 1.0
			}
			s := v
			for i := 0; i < 30; i++ {
				s = c.AllReduceSum(s) / float64(p)
			}
			out[c.Rank()] = s
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v != %v across runs", i, a[i], b[i])
		}
	}
}

// TestSendRecvFIFOPerPair: messages between a fixed ordered pair must
// arrive in send order.
func TestSendRecvFIFOPerPair(t *testing.T) {
	Run(2, testMachine(), func(c *Comm) {
		const k = 8 // channel buffer capacity; stay within it
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got := c.Recv(0, 5)
				if got[0] != float64(i) {
					t.Errorf("message %d arrived out of order: %v", i, got[0])
					return
				}
			}
		}
	})
}

// TestBytesAccounting checks the 8-bytes-per-float64 accounting.
func TestBytesAccounting(t *testing.T) {
	stats := Run(2, testMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
			c.Send(1, 1, make([]float64, 3))
		} else {
			c.Recv(0, 0)
			c.Recv(0, 1)
		}
	})
	if stats[0].BytesSent != 8*13 {
		t.Fatalf("bytes sent %d, want %d", stats[0].BytesSent, 8*13)
	}
	if stats[1].BytesSent != 0 {
		t.Fatalf("receiver reported %d bytes sent", stats[1].BytesSent)
	}
}

// TestEmptyMessage: zero-length payloads are legal (used by protocols
// with pure synchronization semantics).
func TestEmptyMessage(t *testing.T) {
	Run(2, testMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, nil)
		} else {
			if got := c.Recv(0, 9); len(got) != 0 {
				t.Errorf("expected empty message, got %v", got)
			}
		}
	})
}
