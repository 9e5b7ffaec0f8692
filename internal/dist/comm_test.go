package dist

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func testMachine() *Machine {
	return &Machine{Name: "test", FlopRate: 1e6, Latency: 1e-3, ByteTime: 1e-6, Load: 1, Seed: 0}
}

func TestPingPong(t *testing.T) {
	stats := Run(2, testMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
			got := c.Recv(1, 8)
			if len(got) != 1 || got[0] != 6 {
				t.Errorf("rank 0 got %v, want [6]", got)
			}
		} else {
			m := c.Recv(0, 7)
			c.Send(0, 8, []float64{m[0] + m[1] + m[2]})
		}
	})
	if len(stats) != 2 {
		t.Fatalf("stats length %d", len(stats))
	}
	if stats[0].MsgsSent != 1 || stats[0].BytesSent != 24 {
		t.Errorf("rank 0 stats %+v", stats[0])
	}
}

// A rank leases one value per pool for its whole world: repeated Leases
// hand it the same value without touching the pool, ranks get values of
// their own, and the world's end returns every lease.
func TestLeaseOncePerRank(t *testing.T) {
	var made atomic.Int32
	a := sync.Pool{New: func() any { made.Add(1); return new([4]float64) }}
	b := sync.Pool{New: func() any { made.Add(1); return new([4]float64) }}
	const p = 3
	comms := make([]*Comm, p)
	first := make([]*[4]float64, p)
	_, err := RunOpts(p, testMachine(), WorldOptions{}, func(c *Comm) {
		comms[c.Rank()] = c
		first[c.Rank()] = c.Lease(&a).(*[4]float64)
		c.Lease(&b)
		for range 10 {
			if c.Lease(&a).(*[4]float64) != first[c.Rank()] {
				t.Errorf("rank %d: a later Lease handed out another value", c.Rank())
			}
		}
		c.Barrier() // every rank holds its leases at once
	})
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() != 2*p {
		t.Fatalf("%d values made, want one per pool and rank (%d)", made.Load(), 2*p)
	}
	for r := range p {
		for q := range r {
			if first[r] == first[q] {
				t.Errorf("ranks %d and %d lease the same value", q, r)
			}
		}
		if len(comms[r].leases) != 0 {
			t.Errorf("rank %d still holds %d leases after its world ended", r, len(comms[r].leases))
		}
	}
}

func TestSendCopiesData(t *testing.T) {
	Run(2, testMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.Recv(0, 0); got[0] != 42 {
				t.Errorf("message mutated after send: %v", got)
			}
		}
	})
}

func TestRecvTagMismatchPanics(t *testing.T) {
	done := make(chan bool, 1)
	Run(2, testMachine(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{0})
		} else {
			defer func() { done <- recover() != nil }()
			c.Recv(0, 2)
		}
	})
	if !<-done {
		t.Fatal("tag mismatch did not panic")
	}
}

func TestNeighborExchangeAllPairs(t *testing.T) {
	// Every rank sends its rank id to every other rank; a full exchange
	// must not deadlock and must deliver correct values.
	const p = 8
	Run(p, testMachine(), func(c *Comm) {
		for to := 0; to < p; to++ {
			if to != c.Rank() {
				c.Send(to, 3, []float64{float64(c.Rank())})
			}
		}
		for from := 0; from < p; from++ {
			if from != c.Rank() {
				got := c.Recv(from, 3)
				if got[0] != float64(from) {
					t.Errorf("rank %d: from %d got %v", c.Rank(), from, got)
				}
			}
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	const p = 7
	Run(p, testMachine(), func(c *Comm) {
		got := c.AllReduceSum(float64(c.Rank() + 1))
		if got != p*(p+1)/2 {
			t.Errorf("rank %d: sum %v, want %v", c.Rank(), got, p*(p+1)/2)
		}
	})
}

// TestAllReduceSumZeroAlloc: the scalar all-reduce — one per inner
// product of every Krylov iteration on every rank — allocates nothing on
// the in-process transport once the reducer's slots have their length.
// testing.AllocsPerRun counts the mallocs of the whole process, so at
// P = 4 the three partner ranks are measured too.
func TestAllReduceSumZeroAlloc(t *testing.T) {
	const runs, warm = 100, 2 // one warm-up wave per result parity
	for _, p := range []int{1, 4} {
		var got float64
		Run(p, testMachine(), func(c *Comm) {
			for i := 0; i < warm; i++ {
				c.AllReduceSum(1)
			}
			if c.Rank() == 0 {
				got = testing.AllocsPerRun(runs, func() { c.AllReduceSum(1) })
				return
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				c.AllReduceSum(1)
			}
		})
		if got != 0 {
			t.Errorf("P=%d: AllReduceSum allocates %v objects per call, want 0", p, got)
		}
	}
}

func TestAllReduceRepeatedWaves(t *testing.T) {
	// Many back-to-back collectives stress the generation/parity logic.
	const p, waves = 5, 200
	Run(p, testMachine(), func(c *Comm) {
		for w := 0; w < waves; w++ {
			got := c.AllReduceSum(float64(w))
			if got != float64(w*p) {
				t.Errorf("rank %d wave %d: %v, want %v", c.Rank(), w, got, w*p)
				return
			}
		}
	})
}

func TestAllReduceMin(t *testing.T) {
	const p = 6
	Run(p, testMachine(), func(c *Comm) {
		if got := c.AllReduceMin(float64(c.Rank())); got != 0 {
			t.Errorf("min = %v", got)
		}
	})
}

func TestAllReduceSumVec(t *testing.T) {
	const p = 4
	Run(p, testMachine(), func(c *Comm) {
		v := []float64{float64(c.Rank()), 1}
		got := c.AllReduceSumVec(v)
		if got[0] != 6 || got[1] != p {
			t.Errorf("rank %d: %v", c.Rank(), got)
		}
	})
}

func TestVirtualClockDeterministic(t *testing.T) {
	run := func() float64 {
		stats := Run(4, LinuxCluster(), func(c *Comm) {
			c.Compute(1e6)
			c.AllReduceSum(1)
			if c.Rank() > 0 {
				c.Send(c.Rank()-1, 0, make([]float64, 100))
			}
			if c.Rank() < c.Size()-1 {
				c.Recv(c.Rank()+1, 0)
			}
			c.Barrier()
		})
		return MaxClock(stats)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual time not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatal("virtual time not positive")
	}
}

func TestVirtualClockComputeAccounting(t *testing.T) {
	m := testMachine()
	stats := Run(1, m, func(c *Comm) {
		c.Compute(5e6)
	})
	if want := 5.0; math.Abs(stats[0].ComputeTime-want) > 1e-12 {
		t.Fatalf("compute time %v, want %v", stats[0].ComputeTime, want)
	}
	if stats[0].CommTime != 0 {
		t.Fatalf("comm time %v, want 0", stats[0].CommTime)
	}
	if stats[0].Flops != 5e6 {
		t.Fatalf("flops %v", stats[0].Flops)
	}
}

func TestLoadFactorSlowsCompute(t *testing.T) {
	fast := Origin3800Unloaded()
	slow := Origin3800()
	tf := Run(1, fast, func(c *Comm) { c.Compute(1e8) })[0].Clock
	ts := Run(1, slow, func(c *Comm) { c.Compute(1e8) })[0].Clock
	if math.Abs(ts/tf-slow.Load) > 1e-9 {
		t.Fatalf("load factor: %v/%v, want ratio %v", ts, tf, slow.Load)
	}
}

func TestMessageTimeDominatedByLatencyOnCluster(t *testing.T) {
	// A small message on the cluster costs ≈α; on the Origin it is 20×
	// cheaper. This is the contrast driving the paper's scalability gap.
	cl, or := LinuxCluster(), Origin3800()
	small := 8
	if cl.messageTime(small) < 10*or.messageTime(small) {
		t.Fatalf("cluster msg %v vs origin %v: expected ≥10× gap",
			cl.messageTime(small), or.messageTime(small))
	}
}

func TestCollectiveTimeGrowsLogarithmically(t *testing.T) {
	m := LinuxCluster()
	t4 := m.collectiveTime(4, 8)
	t16 := m.collectiveTime(16, 8)
	t17 := m.collectiveTime(17, 8)
	if math.Abs(t16/t4-2) > 1e-9 {
		t.Fatalf("collective scaling: t16/t4 = %v, want 2", t16/t4)
	}
	if t17 <= t16 {
		t.Fatalf("ceil(log2) not applied: %v <= %v", t17, t16)
	}
	if m.collectiveTime(1, 8) != 0 {
		t.Fatal("P=1 collective should be free")
	}
}

func TestClockSynchronizesAtBarrier(t *testing.T) {
	stats := Run(3, testMachine(), func(c *Comm) {
		c.Compute(float64(c.Rank()) * 1e6) // ranks do 0s, 1s, 2s of work
		c.Barrier()
	})
	// After the barrier every clock is ≥ the slowest rank's compute time.
	for _, s := range stats {
		if s.Clock < 2 {
			t.Fatalf("rank %d clock %v < 2 after barrier", s.Rank, s.Clock)
		}
	}
}

func TestWorldSingleRank(t *testing.T) {
	stats := Run(1, testMachine(), func(c *Comm) {
		if c.Size() != 1 {
			t.Errorf("size %d", c.Size())
		}
		if got := c.AllReduceSum(3); got != 3 {
			t.Errorf("self allreduce %v", got)
		}
		c.Barrier()
	})
	if len(stats) != 1 {
		t.Fatal("stats")
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0, testMachine())
}

func TestMaxClock(t *testing.T) {
	s := []Stats{{Clock: 1}, {Clock: 5}, {Clock: 3}}
	if got := MaxClock(s); got != 5 {
		t.Fatalf("MaxClock = %v", got)
	}
	if MaxClock(nil) != 0 {
		t.Fatal("MaxClock(nil)")
	}
}

func TestCommAccessorPanicsOutOfRange(t *testing.T) {
	w := NewWorld(2, testMachine())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Comm(2)
}
