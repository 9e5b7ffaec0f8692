package dist

import "testing"

func TestVoteStopPropagatesAnyRanksVote(t *testing.T) {
	const p = 4
	got := make([]bool, p)
	Run(p, testMachine(), func(c *Comm) {
		// Only rank 2 observes the stop signal; everyone must receive it.
		got[c.Rank()] = c.VoteStop(c.Rank() == 2)
	})
	for r, v := range got {
		if !v {
			t.Errorf("rank %d: vote OR lost (got false)", r)
		}
	}
}

func TestVoteStopUnanimousFalse(t *testing.T) {
	const p = 4
	got := make([]bool, p)
	Run(p, testMachine(), func(c *Comm) {
		got[c.Rank()] = c.VoteStop(false)
	})
	for r, v := range got {
		if v {
			t.Errorf("rank %d: spurious stop", r)
		}
	}
}

func TestVoteStopIsUnchargedAndInvisible(t *testing.T) {
	// The control vote must not move virtual clocks, consume fault-RNG
	// draws, or advance the fault op counter — a run that polls but never
	// stops has to stay bit-identical to one that never polls.
	const p = 3
	body := func(votes int) []Stats {
		return Run(p, testMachine(), func(c *Comm) {
			c.AllReduceSum(float64(c.Rank()))
			for i := 0; i < votes; i++ {
				if c.VoteStop(false) {
					t.Error("unexpected stop")
				}
			}
			c.AllReduceMin(float64(c.Rank()))
		})
	}
	ref := body(0)
	polled := body(5)
	for r := 0; r < p; r++ {
		if ref[r].Clock != polled[r].Clock {
			t.Errorf("rank %d: VoteStop charged the clock: %v vs %v", r, ref[r].Clock, polled[r].Clock)
		}
		if ref[r].CommTime != polled[r].CommTime {
			t.Errorf("rank %d: VoteStop charged comm time: %v vs %v", r, ref[r].CommTime, polled[r].CommTime)
		}
	}
}
