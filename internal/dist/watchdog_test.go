package dist

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// Satellite: a deliberate 3-rank receive cycle must be diagnosed as a
// DeadlockError whose per-rank states name each rank's stuck receive.
func TestDeadlockCycleDiagnosed(t *testing.T) {
	m := testMachine()
	start := time.Now()
	stats, err := RunOpts(3, m, WorldOptions{Watchdog: 100 * time.Millisecond}, func(c *Comm) {
		// Everyone receives from the next rank; nobody ever sends.
		c.Recv((c.Rank()+1)%3, 7)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if de.Budget != 100*time.Millisecond {
		t.Errorf("budget not recorded: %v", de.Budget)
	}
	if len(de.Ranks) != 3 {
		t.Fatalf("want 3 rank states, got %d", len(de.Ranks))
	}
	for r, st := range de.Ranks {
		if st.Rank != r || st.LastOp != "recv" || st.Peer != (r+1)%3 || st.Tag != 7 {
			t.Errorf("rank %d diagnostics wrong: %+v", r, st)
		}
		if !st.Blocked || st.Done || st.Crashed {
			t.Errorf("rank %d should be blocked: %+v", r, st)
		}
	}
	if msg := de.Error(); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "recv") {
		t.Errorf("message not descriptive: %q", msg)
	}
	if stats == nil {
		t.Fatal("stats must be returned alongside the deadlock")
	}
	if time.Since(start) > 10*time.Second {
		t.Error("deadlock detection took far longer than the budget")
	}
}

// A blocked collective must also be unwound and diagnosed.
func TestDeadlockInCollectiveDiagnosed(t *testing.T) {
	m := testMachine()
	_, err := RunOpts(2, m, WorldOptions{Watchdog: 100 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // rank 1 never arrives
		} else {
			c.Recv(0, 1) // rank 0 never sends
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if de.Ranks[0].LastOp != "barrier" || de.Ranks[1].LastOp != "recv" {
		t.Errorf("per-rank last ops wrong: %+v", de.Ranks)
	}
}

// Satellite: the new error-returning receive reports tag mismatches with
// full diagnostics...
func TestRecvErrTagMismatch(t *testing.T) {
	m := testMachine()
	var gotErr error
	_, err := RunOpts(2, m, WorldOptions{Watchdog: time.Second}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 2})
		} else {
			_, gotErr = c.RecvErr(0, 2)
		}
	})
	if err != nil {
		t.Fatalf("RunOpts: %v", err)
	}
	var tm *TagMismatchError
	if !errors.As(gotErr, &tm) {
		t.Fatalf("want TagMismatchError, got %v", gotErr)
	}
	if tm.Rank != 1 || tm.Peer != 0 || tm.Want != 2 || tm.Got != 1 {
		t.Errorf("fields wrong: %+v", tm)
	}
}

// ...while the legacy panicking Recv keeps its exact old contract: the
// typed error is the panic value.
func TestLegacyRecvStillPanicsOnMismatch(t *testing.T) {
	m := testMachine()
	var recovered any
	Run(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			return
		}
		defer func() { recovered = recover() }()
		c.Recv(0, 2)
	})
	tm, ok := recovered.(*TagMismatchError)
	if !ok {
		t.Fatalf("want *TagMismatchError panic, got %#v", recovered)
	}
	if tm.Want != 2 || tm.Got != 1 {
		t.Errorf("fields wrong: %+v", tm)
	}
}

// A healthy run making steady progress must never trip a short watchdog:
// the budget bounds stall time, not total runtime.
func TestWatchdogIgnoresSlowButLiveRun(t *testing.T) {
	m := testMachine()
	_, err := RunOpts(2, m, WorldOptions{Watchdog: 150 * time.Millisecond}, func(c *Comm) {
		for i := 0; i < 8; i++ {
			time.Sleep(50 * time.Millisecond) // total 400ms > budget
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

// A panic escaping a rank function must come back as a RankPanicError and
// unwind the other ranks instead of hanging them.
func TestRankPanicBecomesTypedError(t *testing.T) {
	m := testMachine()
	_, err := RunOpts(3, m, WorldOptions{Watchdog: 10 * time.Second}, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// The others block in a collective until the abort releases them.
		c.Barrier()
	})
	var pe *RankPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want RankPanicError, got %v", err)
	}
	if pe.Rank != 1 || pe.Value != any("boom") {
		t.Errorf("fields wrong: rank %d value %v", pe.Rank, pe.Value)
	}
	if pe.Stack == "" {
		t.Error("stack trace missing")
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("message must carry the panic value: %q", pe.Error())
	}
}

// Satellite: the per-pair channel depth is configurable. Depth 1 makes a
// two-messages-before-receiving protocol deadlock; the default depth
// absorbs it.
func TestBufferDepthOption(t *testing.T) {
	m := testMachine()
	burst := func(c *Comm) {
		peer := 1 - c.Rank()
		c.Send(peer, 1, []float64{1})
		c.Send(peer, 2, []float64{2})
		c.Recv(peer, 1)
		c.Recv(peer, 2)
	}
	if _, err := RunOpts(2, m, WorldOptions{Watchdog: time.Second}, burst); err != nil {
		t.Fatalf("default depth must absorb a 2-message burst: %v", err)
	}
	_, err := RunOpts(2, m, WorldOptions{BufferDepth: 1, Watchdog: 100 * time.Millisecond}, burst)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("depth 1 must deadlock the burst protocol, got %v", err)
	}
	for _, st := range de.Ranks {
		if st.LastOp != "send" {
			t.Errorf("rank %d should be stuck in send: %+v", st.Rank, st)
		}
	}
}

// The sender-side α satellite: a send must advance the sender's clock by
// exactly the machine latency.
func TestSendChargesSenderAlpha(t *testing.T) {
	m := testMachine()
	stats := Run(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1, 2, 3})
		} else {
			c.Recv(0, 1)
		}
	})
	if got, want := stats[0].Clock, m.Latency; got != want {
		t.Errorf("sender clock %g, want α = %g", got, want)
	}
	// The receiver sees the stamped send time plus its own α + β·bytes.
	wantRecv := m.Latency + m.messageTime(8*3)
	if got := stats[1].Clock; got != wantRecv {
		t.Errorf("receiver clock %g, want %g", got, wantRecv)
	}
}
