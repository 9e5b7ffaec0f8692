package dist

import (
	"errors"
	"testing"
	"time"
)

// slowTransport wraps the in-process loopback with a fixed wall-clock
// delay on every operation and reports that delay as its Grace — the
// shape of a healthy-but-slow socket transport. It is the regression
// fixture for the watchdog's Grace accounting: without the
// `budget += tr.Grace()` extension, a per-op latency above the raw
// budget reads as "no progress" and fires a spurious DeadlockError.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s *slowTransport) Recv(to, from int) (Message, error) {
	time.Sleep(s.delay)
	return s.Transport.Recv(to, from)
}

func (s *slowTransport) Reduce(rank int, x []float64, clock float64, kind ReduceKind) (float64, error) {
	time.Sleep(s.delay)
	return s.Transport.Reduce(rank, x, clock, kind)
}

func (s *slowTransport) Grace() time.Duration { return 2 * s.delay }

// Satellite: a transport whose per-op latency exceeds the watchdog budget
// must NOT be misread as a deadlock — the budget is extended by the
// transport's Grace, so the slow-but-progressing world completes cleanly.
func TestWatchdogToleratesSlowTransport(t *testing.T) {
	const p = 3
	tr := &slowTransport{Transport: NewLoopback(p, 0), delay: 120 * time.Millisecond}
	// Raw budget (40ms) is far below the per-op latency (120ms); only the
	// Grace extension (240ms) keeps the watchdog quiet.
	opts := WorldOptions{Watchdog: 40 * time.Millisecond, Transport: tr}
	stats, err := RunOpts(p, testMachine(), opts, func(c *Comm) {
		for i := 0; i < 3; i++ {
			c.Barrier()
			next := (c.Rank() + 1) % p
			prev := (c.Rank() + p - 1) % p
			c.Send(next, i, []float64{float64(i)})
			m := c.Recv(prev, i)
			if int(m[0]) != i {
				t.Errorf("rank %d round %d: got %v", c.Rank(), i, m)
			}
		}
	})
	var de *DeadlockError
	if errors.As(err, &de) {
		t.Fatalf("slow transport misdiagnosed as deadlock: %v", err)
	}
	if err != nil {
		t.Fatalf("slow-transport world failed: %v", err)
	}
	if len(stats) != p {
		t.Fatalf("got %d rank stats, want %d", len(stats), p)
	}
}

// A genuine stall through a slow transport must still be caught, and the
// reported budget must carry the Grace extension so the diagnostic states
// the budget that actually applied.
func TestWatchdogStillFiresThroughSlowTransport(t *testing.T) {
	const p = 2
	tr := &slowTransport{Transport: NewLoopback(p, 0), delay: 50 * time.Millisecond}
	opts := WorldOptions{Watchdog: 100 * time.Millisecond, Transport: tr}
	start := time.Now()
	_, err := RunOpts(p, testMachine(), opts, func(c *Comm) {
		c.Recv((c.Rank()+1)%p, 3) // nobody sends: a real deadlock
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if want := 100*time.Millisecond + tr.Grace(); de.Budget != want {
		t.Errorf("reported budget %v, want raw+grace %v", de.Budget, want)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("slow-transport deadlock detection took far longer than the budget")
	}
}
