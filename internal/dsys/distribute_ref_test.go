package dsys

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parapre/internal/sparse"
)

// distributeRef is Distribute as it was when the distribution path kept Go
// maps, without the worker pool: the classification, buildLocalRef per
// rank, wireNeighborsRef, the blocked-SpMV pre-warm. Kept as the oracle.
func distributeRef(a *sparse.CSR, b []float64, part []int, p int) []*System {
	n := a.Rows
	isIface := make([]bool, n)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j32 := range cols {
			j := int(j32)
			if part[j] != part[i] {
				isIface[i], isIface[j] = true, true
			}
		}
	}
	systems := make([]*System, p)
	g2l := make([]int, n)
	for r := range systems {
		systems[r] = buildLocalRef(a, b, part, r, p, isIface, g2l)
	}
	wireNeighborsRef(systems)
	for _, s := range systems {
		s.A.AutoBlocked()
	}
	return systems
}

func buildLocalRef(a *sparse.CSR, b []float64, part []int, r, p int, isIface []bool, g2l []int) *System {
	n := a.Rows
	s := &System{Rank: r, P: p, N: n}
	for i := 0; i < n; i++ {
		if part[i] == r && !isIface[i] {
			s.GlobalIDs = append(s.GlobalIDs, int32(i))
		}
	}
	s.NInt = len(s.GlobalIDs)
	for i := 0; i < n; i++ {
		if part[i] == r && isIface[i] {
			s.GlobalIDs = append(s.GlobalIDs, int32(i))
		}
	}
	nloc := len(s.GlobalIDs)
	for l, g := range s.GlobalIDs {
		g2l[g] = l
	}
	extSeen := map[int]bool{}
	for _, g := range s.GlobalIDs {
		cols, _ := a.Row(int(g))
		for _, j32 := range cols {
			j := int(j32)
			if part[j] != r && !extSeen[j] {
				extSeen[j] = true
				s.ExtGlobal = append(s.ExtGlobal, j32)
			}
		}
	}
	sort.Slice(s.ExtGlobal, func(x, y int) bool {
		gx, gy := s.ExtGlobal[x], s.ExtGlobal[y]
		if part[gx] != part[gy] {
			return part[gx] < part[gy]
		}
		return gx < gy
	})
	extLocal := map[int]int{}
	for k, g := range s.ExtGlobal {
		extLocal[int(g)] = nloc + k
	}
	for k := 0; k < len(s.ExtGlobal); {
		owner := part[s.ExtGlobal[k]]
		start := k
		for k < len(s.ExtGlobal) && part[s.ExtGlobal[k]] == owner {
			k++
		}
		s.Neigh = append(s.Neigh, Neighbor{Rank: owner, RecvOff: start, RecvLen: k - start})
	}
	s.A = sparse.NewCSR(nloc, nloc+len(s.ExtGlobal), 0)
	s.B = make([]float64, nloc)
	for l, g := range s.GlobalIDs {
		s.B[l] = b[g]
		cols, vals := a.Row(int(g))
		start := len(s.A.ColIdx)
		for kk, j32 := range cols {
			j := int(j32)
			var lj int
			if part[j] == r {
				lj = g2l[j]
			} else {
				lj = extLocal[j]
			}
			s.A.ColIdx = append(s.A.ColIdx, int32(lj))
			s.A.Val = append(s.A.Val, vals[kk])
		}
		s.A.EndRow(l)
		sparse.SortRow(s.A.ColIdx[start:], s.A.Val[start:])
	}
	return s
}

func wireNeighborsRef(systems []*System) {
	for _, s := range systems {
		g2l := make(map[int32]int32, s.NLoc())
		for l, g := range s.GlobalIDs {
			g2l[g] = int32(l)
		}
		for _, q := range systems {
			if q.Rank == s.Rank {
				continue
			}
			for _, nb := range q.Neigh {
				if nb.Rank != s.Rank {
					continue
				}
				send := make([]int32, nb.RecvLen)
				for k := 0; k < nb.RecvLen; k++ {
					g := q.ExtGlobal[nb.RecvOff+k]
					l, ok := g2l[g]
					if !ok {
						panic(fmt.Sprintf("dsys: rank %d needs global %d from %d, which does not own it", q.Rank, g, s.Rank))
					}
					send[k] = l
				}
				found := false
				for ni := range s.Neigh {
					if s.Neigh[ni].Rank == q.Rank {
						s.Neigh[ni].SendIdx = send
						found = true
						break
					}
				}
				if !found {
					s.Neigh = append(s.Neigh, Neighbor{Rank: q.Rank, SendIdx: send, RecvOff: s.NExt(), RecvLen: 0})
				}
			}
		}
		sort.Slice(s.Neigh, func(i, j int) bool { return s.Neigh[i].Rank < s.Neigh[j].Rank })
	}
}

// sameSystem compares every field of two subdomain systems.
func sameSystem(got, want *System) error {
	switch {
	case got.Rank != want.Rank || got.P != want.P || got.N != want.N || got.NInt != want.NInt:
		return fmt.Errorf("header (%d %d %d %d), want (%d %d %d %d)",
			got.Rank, got.P, got.N, got.NInt, want.Rank, want.P, want.N, want.NInt)
	case !slices.Equal(got.GlobalIDs, want.GlobalIDs):
		return fmt.Errorf("GlobalIDs %v, want %v", got.GlobalIDs, want.GlobalIDs)
	case !slices.Equal(got.ExtGlobal, want.ExtGlobal):
		return fmt.Errorf("ExtGlobal %v, want %v", got.ExtGlobal, want.ExtGlobal)
	case !slices.Equal(got.B, want.B):
		return fmt.Errorf("B differs")
	case got.A.Rows != want.A.Rows || got.A.Cols != want.A.Cols:
		return fmt.Errorf("A is %d×%d, want %d×%d", got.A.Rows, got.A.Cols, want.A.Rows, want.A.Cols)
	case !slices.Equal(got.A.RowPtr, want.A.RowPtr) || !slices.Equal(got.A.ColIdx, want.A.ColIdx) || !slices.Equal(got.A.Val, want.A.Val):
		return fmt.Errorf("A's entries differ")
	case len(got.Neigh) != len(want.Neigh):
		return fmt.Errorf("%d neighbors, want %d", len(got.Neigh), len(want.Neigh))
	}
	for k, nb := range got.Neigh {
		w := want.Neigh[k]
		if nb.Rank != w.Rank || nb.RecvOff != w.RecvOff || nb.RecvLen != w.RecvLen || !slices.Equal(nb.SendIdx, w.SendIdx) {
			return fmt.Errorf("neighbor %d is %+v, want %+v", k, nb, w)
		}
	}
	return nil
}

// randomUnsymmetric returns a square matrix with a full diagonal and
// about perRow off-diagonal entries per row placed without regard to
// symmetry, rows unsorted, and a random partition into p parts that may
// leave a part empty.
func randomUnsymmetric(rng *rand.Rand, n, perRow, p int) (*sparse.CSR, []float64, []int) {
	a := sparse.NewCSR(n, n, n*(perRow+1))
	b, part := make([]float64, n), make([]int, n)
	for i := 0; i < n; i++ {
		b[i], part[i] = rng.NormFloat64(), rng.Intn(p)
		seen := map[int]bool{i: true}
		a.ColIdx, a.Val = append(a.ColIdx, int32(i)), append(a.Val, 4)
		for k := rng.Intn(2*perRow + 1); k > 0; k-- {
			if j := rng.Intn(n); !seen[j] {
				seen[j] = true
				a.ColIdx, a.Val = append(a.ColIdx, int32(j)), append(a.Val, rng.NormFloat64())
			}
		}
		a.EndRow(i)
	}
	return a, b, part
}

// TestDistributeMatchesReference compares Distribute with the map-based
// oracle field by field: on the hand-built unsymmetric system, on random
// structurally unsymmetric matrices under random partitions (send-only
// neighbors, empty ranks), and on a partitioned Poisson problem.
func TestDistributeMatchesReference(t *testing.T) {
	type input struct {
		a    *sparse.CSR
		b    []float64
		part []int
		p    int
	}
	a, b, part := nonsymSystem()
	inputs := []input{{a, b, part, 2}}
	a, b, part = poissonSystem(t, 17, 8, 3)
	inputs = append(inputs, input{a, b, part, 8})
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		p := 1 + rng.Intn(7)
		a, b, part := randomUnsymmetric(rng, 1+rng.Intn(80), 1+rng.Intn(4), p)
		inputs = append(inputs, input{a, b, part, p})
	}
	for k, in := range inputs {
		got, want := Distribute(in.a, in.b, in.part, in.p), distributeRef(in.a, in.b, in.part, in.p)
		for r := range want {
			if err := sameSystem(got[r], want[r]); err != nil {
				t.Fatalf("input %d (n = %d, P = %d), rank %d: %v", k, in.a.Rows, in.p, r, err)
			}
		}
	}
}

// BenchmarkDistribute splits the largest problem of the repository's
// benchmark eight ways.
func BenchmarkDistribute(b *testing.B) {
	a, rhs, part := poissonSystem(b, 129, 8, 1)
	b.Run("tc1-poisson2d@129/P8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Distribute(a, rhs, part, 8)
		}
	})
	b.Run("tc1-poisson2d@129/P8/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			distributeRef(a, rhs, part, 8)
		}
	})
}
