//go:build !paranoid

// The exchange and matvec failure tests inject NaN payloads, which the
// paranoid build's finite-value assertions would turn into panics before
// the typed-error paths under test can run.
package dsys

import (
	"errors"
	"math"
	"strings"
	"testing"

	"parapre/internal/dist"
)

// A wrong-length ext buffer is a caller bug reported as a typed error.
func TestExchangeErrBufferLengthValidated(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 2, 1)
	systems := Distribute(a, b, part, 2)
	dist.Run(2, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		err := s.Exchange(c, make([]float64, 1))
		var xe *ExchangeError
		if !errors.As(err, &xe) || !strings.Contains(err.Error(), "length") {
			t.Errorf("rank %d: want buffer-length ExchangeError, got %v", c.Rank(), err)
		}
	})
}

// A NaN in an owned interface value must be flagged by every neighbor
// that receives it, as injected corruption would be.
func TestExchangeErrDetectsNonFinitePayload(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 2, 1)
	systems := Distribute(a, b, part, 2)
	errs := make([]error, 2)
	dist.Run(2, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		ext := make([]float64, s.NLoc()+s.NExt())
		if c.Rank() == 0 {
			// Poison every owned value: whatever subset is interfacial
			// reaches rank 1.
			for i := 0; i < s.NLoc(); i++ {
				ext[i] = math.NaN()
			}
		} else {
			for i := 0; i < s.NLoc(); i++ {
				ext[i] = 1
			}
		}
		errs[c.Rank()] = s.Exchange(c, ext)
	})
	if errs[0] != nil {
		t.Errorf("rank 0 received clean data but errored: %v", errs[0])
	}
	var xe *ExchangeError
	if !errors.As(errs[1], &xe) {
		t.Fatalf("rank 1 must flag the NaN payload, got %v", errs[1])
	}
	if xe.Rank != 1 || xe.Peer != 0 || xe.Tag != tagExchange || xe.Reason != "non-finite payload" {
		t.Errorf("fields wrong: %+v", xe)
	}
}

// Detecting corruption must not leave undelivered messages behind: a
// second, clean exchange right after a poisoned one must pair correctly
// and succeed.
func TestExchangeErrDrainsAllNeighborsOnFailure(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 4, 1)
	systems := Distribute(a, b, part, 4)
	dist.Run(4, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		ext := make([]float64, s.NLoc()+s.NExt())
		for i := 0; i < s.NLoc(); i++ {
			ext[i] = math.NaN() // every rank poisons round 1
		}
		_ = s.Exchange(c, ext)
		for i := 0; i < s.NLoc(); i++ {
			ext[i] = 1
		}
		if err := s.Exchange(c, ext); err != nil {
			t.Errorf("rank %d: clean exchange after a poisoned one failed: %v", c.Rank(), err)
		}
	})
}

// MatVec must leave the output untouched when the exchange fails.
func TestMatVecErrStrictSemantics(t *testing.T) {
	a, b, part := poissonSystem(t, 9, 2, 1)
	systems := Distribute(a, b, part, 2)
	dist.Run(2, testMachine(), func(c *dist.Comm) {
		s := systems[c.Rank()]
		x := make([]float64, s.NLoc())
		for i := range x {
			x[i] = float64(s.GlobalIDs[i]%7) + 1
		}
		ext := make([]float64, s.NLoc()+s.NExt())
		yStrict := make([]float64, s.NLoc())
		// Poisoned input: the error is typed and y keeps its sentinel.
		// Every entry is poisoned so the interfacial subset — whatever the
		// partition made it — carries NaN to rank 1.
		if c.Rank() == 0 {
			for i := range x {
				x[i] = math.NaN()
			}
		}
		const sentinel = -12345
		for i := range yStrict {
			yStrict[i] = sentinel
		}
		err := s.MatVec(c, yStrict, x, ext)
		hasIface := s.NLoc() > s.NInt
		if c.Rank() == 1 {
			var xe *ExchangeError
			// Rank 1 sees the NaN only if rank 0's poisoned entry is
			// interfacial; with this partition it is.
			if !errors.As(err, &xe) {
				t.Errorf("rank 1: want ExchangeError, got %v (iface=%v)", err, hasIface)
			}
			for i := range yStrict {
				if yStrict[i] != sentinel {
					t.Errorf("y modified on error at %d: %g", i, yStrict[i])
					break
				}
			}
		}
	})
}
