package dsys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parapre/internal/dist"
	"parapre/internal/sparse"
)

// randStructSym builds a random matrix with a structurally symmetric
// pattern (the property dsys relies on for its interface
// classification), unsymmetric values, and a dominant diagonal.
func randStructSym(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*8)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 10)
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				coo.Add(i, j, rng.NormFloat64())
				coo.Add(j, i, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func randPartition(rng *rand.Rand, n, p int) []int {
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(p)
	}
	// Guarantee non-empty parts.
	perm := rng.Perm(n)
	for q := 0; q < p; q++ {
		part[perm[q]] = q
	}
	return part
}

// TestDistributePropertyRandomMatrices: for arbitrary structurally
// symmetric matrices and arbitrary (even non-contiguous) partitions, the
// distributed matvec must agree with the global one and all structural
// invariants must hold.
func TestDistributePropertyRandomMatrices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		p := 2 + rng.Intn(4)
		a := randStructSym(rng, n)
		part := randPartition(rng, n, p)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		systems := Distribute(a, b, part, p)
		for _, s := range systems {
			if err := s.CheckStructure(); err != nil {
				t.Logf("structure: %v", err)
				return false
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := a.MulVec(x)
		xl := Scatter(systems, x)
		yl := make([][]float64, p)
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			s := systems[c.Rank()]
			y := make([]float64, s.NLoc())
			ext := make([]float64, s.NLoc()+s.NExt())
			if err := s.MatVec(c, y, xl[c.Rank()], ext); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			yl[c.Rank()] = y
		})
		got := Gather(systems, yl)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedMatVecStable: the exchange buffers must be reusable —
// several matvecs in a row give identical answers.
func TestRepeatedMatVecStable(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n, p := 30, 3
	a := randStructSym(rng, n)
	part := randPartition(rng, n, p)
	b := make([]float64, n)
	systems := Distribute(a, b, part, p)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xl := Scatter(systems, x)
	outs := make([][]float64, 3)
	for round := 0; round < 3; round++ {
		yl := make([][]float64, p)
		dist.Run(p, testMachine(), func(c *dist.Comm) {
			s := systems[c.Rank()]
			y := make([]float64, s.NLoc())
			ext := make([]float64, s.NLoc()+s.NExt())
			for k := 0; k <= round; k++ { // also repeat within one run
				if err := s.MatVec(c, y, xl[c.Rank()], ext); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
				}
			}
			yl[c.Rank()] = y
		})
		outs[round] = Gather(systems, yl)
	}
	for round := 1; round < 3; round++ {
		for i := range outs[0] {
			if outs[round][i] != outs[0][i] {
				t.Fatalf("round %d: matvec result changed at %d", round, i)
			}
		}
	}
}

// TestNeighborSymmetry: if rank a receives from rank b, rank b must list
// rank a with a matching send list.
func TestNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := randStructSym(rng, 40)
	part := randPartition(rng, 40, 4)
	systems := Distribute(a, make([]float64, 40), part, 4)
	for _, s := range systems {
		for _, nb := range s.Neigh {
			if nb.RecvLen == 0 {
				continue
			}
			peer := systems[nb.Rank]
			found := false
			for _, pn := range peer.Neigh {
				if pn.Rank == s.Rank && len(pn.SendIdx) == nb.RecvLen {
					found = true
					// The globals must line up.
					for k := 0; k < nb.RecvLen; k++ {
						want := s.ExtGlobal[nb.RecvOff+k]
						got := peer.GlobalIDs[pn.SendIdx[k]]
						if got != want {
							t.Fatalf("rank %d←%d slot %d: peer sends %d, want %d",
								s.Rank, nb.Rank, k, got, want)
						}
					}
				}
			}
			if !found {
				t.Fatalf("rank %d receives %d values from %d, but no matching send list",
					s.Rank, nb.RecvLen, nb.Rank)
			}
		}
	}
}

// TestOwnedBlockIsPrincipalSubmatrix verifies OwnedBlock against the
// global matrix through the local-global maps.
func TestOwnedBlockIsPrincipalSubmatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := randStructSym(rng, 25)
	part := randPartition(rng, 25, 3)
	systems := Distribute(a, make([]float64, 25), part, 3)
	for _, s := range systems {
		blk := s.OwnedBlock()
		for li := 0; li < s.NLoc(); li++ {
			for lj := 0; lj < s.NLoc(); lj++ {
				if got, want := blk.At(li, lj), a.At(s.GlobalIDs[li], s.GlobalIDs[lj]); got != want {
					t.Fatalf("rank %d: OwnedBlock(%d,%d) = %v, want %v", s.Rank, li, lj, got, want)
				}
			}
		}
	}
}
