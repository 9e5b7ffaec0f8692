// Package dsys implements the distributed sparse linear system of the
// paper's §1.1 and §2: each processor owns one subdomain's rows of the
// (only logically existing) global system. Local unknowns are ordered
// internal-first, interdomain-interface-last, giving every subdomain
// matrix the 2×2 block structure of eq. (4),
//
//	A_i = | B_i  F_i |
//	      | E_i  C_i |
//
// plus coupling columns E_ij into the external interface unknowns owned by
// neighboring subdomains (eq. 5). External interface values live in an
// extension of the local vector and are refreshed by neighbor exchange
// before every matrix-vector product.
package dsys

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"parapre/internal/dist"
	"parapre/internal/obs"
	"parapre/internal/par"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// Neighbor describes the exchange pattern with one adjacent subdomain.
type Neighbor struct {
	Rank    int
	SendIdx []int // local indices of owned unknowns this neighbor reads
	RecvOff int   // offset of this neighbor's block in the external buffer
	RecvLen int
}

// System is the subdomain-local view of the distributed system held by one
// rank. Local numbering: [0, NInt) internal, [NInt, NLoc) interdomain
// interface, [NLoc, NLoc+NExt) external interface (owned by neighbors).
type System struct {
	Rank int
	P    int
	N    int // global dimension

	GlobalIDs []int // global id of each owned local unknown
	NInt      int   // number of internal unknowns
	ExtGlobal []int // global ids of the external interface unknowns

	A *sparse.CSR // NLoc × (NLoc+NExt), rows in local ordering
	B []float64   // local right-hand side, length NLoc

	Neigh []Neighbor

	// halo is Neigh as an exchange pattern: what Exchange runs.
	halo Halo

	// splits bound the parts of A that the windows read (see Window),
	// computed on the first Window call.
	splits atomic.Pointer[rowSplits]
}

// NLoc returns the number of owned unknowns.
func (s *System) NLoc() int { return len(s.GlobalIDs) }

// NExt returns the number of external interface unknowns.
func (s *System) NExt() int { return len(s.ExtGlobal) }

// NIface returns the number of owned interdomain-interface unknowns.
func (s *System) NIface() int { return s.NLoc() - s.NInt }

// String summarizes the subdomain.
func (s *System) String() string {
	return fmt.Sprintf("System{rank %d/%d, nloc=%d (int=%d, ifc=%d), next=%d, neigh=%d}",
		s.Rank, s.P, s.NLoc(), s.NInt, s.NIface(), s.NExt(), len(s.Neigh))
}

// Distribute splits the globally assembled system (a, b) into P subdomain
// systems according to part (part[g] = owning rank of global row g). It
// performs the classification of §1.1 on the symmetrized pattern: a node
// is interdomain interface iff its matrix row couples to a node of another
// subdomain, or a row of another subdomain couples to it; otherwise it is
// internal. The column direction matters for structurally unsymmetric
// matrices — a node referenced only through incoming cross edges is sent
// to its neighbors during the exchange, and the Schur machinery requires
// every sent node to be an interface unknown. The node classification and
// the per-rank subdomain builds are independent, so both run on the
// shared-memory worker pool; each rank's System is a deterministic
// function of (a, b, part), so the result does not depend on the worker
// count. Only the final neighbor wiring, which reads across ranks, stays
// serial.
func Distribute(a *sparse.CSR, b []float64, part []int, p int) []*System {
	if a.Rows != a.Cols {
		panic("dsys: matrix must be square")
	}
	n := a.Rows
	if len(part) != n || len(b) != n {
		panic("dsys: dimension mismatch between matrix, rhs and partition")
	}

	// Classify every global node. The row direction is embarrassingly
	// parallel; the column direction writes to arbitrary isIface entries,
	// so it stays serial (one O(nnz) sweep over the rows).
	isIface := make([]bool, n)
	par.For(n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if part[j] != part[i] {
					isIface[i] = true
					break
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if part[j] != part[i] {
				isIface[j] = true
			}
		}
	}

	systems := make([]*System, p)
	par.For(p, 1, func(lo, hi int) {
		g2l := make([]int, n) // scratch of one rank's build pass at a time
		for r := lo; r < hi; r++ {
			systems[r] = buildLocal(a, b, part, r, p, isIface, g2l)
		}
	})
	wireNeighbors(systems)
	// Pre-warm the blocked-SpMV format decision for each local matrix so
	// block detection (and any BSR conversion) happens once at
	// distribution time instead of inside the first preconditioned
	// iteration. Local matvecs then route through the cached choice.
	par.For(p, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			systems[r].A.AutoBlocked()
		}
	})
	return systems
}

// buildLocal builds rank r's System but for the send sides of its
// neighbors. g2l is caller-owned scratch of length n with arbitrary
// non-negative contents (what earlier ranks left in it): the pass gives
// the entries of the columns rank r references their local index, owned
// and external alike, and reads no other.
func buildLocal(a *sparse.CSR, b []float64, part []int, r, p int, isIface []bool, g2l []int) *System {
	n := a.Rows
	s := &System{Rank: r, P: p, N: n}

	// Owned unknowns: internal first, then interface, each in ascending
	// global order.
	nloc := 0
	for _, owner := range part {
		if owner == r {
			nloc++
		}
	}
	s.GlobalIDs = make([]int, 0, nloc)
	for i := 0; i < n; i++ {
		if part[i] == r && !isIface[i] {
			s.GlobalIDs = append(s.GlobalIDs, i)
		}
	}
	s.NInt = len(s.GlobalIDs)
	for i := 0; i < n; i++ {
		if part[i] == r && isIface[i] {
			s.GlobalIDs = append(s.GlobalIDs, i)
		}
	}
	for l, g := range s.GlobalIDs {
		g2l[g] = l
	}

	// External interface: referenced columns owned elsewhere, grouped by
	// owner rank (ascending), sorted by global id within each group. A
	// negative g2l entry marks a column already listed.
	for _, g := range s.GlobalIDs {
		cols, _ := a.Row(g)
		for _, j := range cols {
			if part[j] != r && g2l[j] >= 0 {
				g2l[j] = -1
				s.ExtGlobal = append(s.ExtGlobal, int(j))
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
	for k, g := range s.ExtGlobal {
		g2l[g] = nloc + k
	}

	// Neighbor receive blocks.
	for k := 0; k < len(s.ExtGlobal); {
		owner := part[s.ExtGlobal[k]]
		start := k
		for k < len(s.ExtGlobal) && part[s.ExtGlobal[k]] == owner {
			k++
		}
		s.Neigh = append(s.Neigh, Neighbor{Rank: owner, RecvOff: start, RecvLen: k - start})
	}

	// Local matrix rows.
	nnz := 0
	for _, g := range s.GlobalIDs {
		nnz += a.RowNNZ(g)
	}
	s.A = sparse.NewCSR(nloc, nloc+len(s.ExtGlobal), nnz)
	s.B = make([]float64, nloc)
	for l, g := range s.GlobalIDs {
		s.B[l] = b[g]
		cols, vals := a.Row(g)
		start := len(s.A.ColIdx)
		for kk, j := range cols {
			s.A.ColIdx = append(s.A.ColIdx, int32(g2l[j]))
			s.A.Val = append(s.A.Val, vals[kk])
		}
		s.A.RowPtr[l+1] = len(s.A.ColIdx)
		sparse.SortRow(s.A.ColIdx[start:], s.A.Val[start:])
	}
	return s
}

// wireNeighbors fills in the send sides: rank r must send to neighbor q
// exactly the unknowns q listed as externals owned by r, in q's receive
// order (sorted by global id).
func wireNeighbors(systems []*System) {
	if len(systems) == 0 {
		return
	}
	// Every global unknown is owned once, so one array holds the local
	// index of each at its owner.
	g2l := make([]int, systems[0].N)
	for _, s := range systems {
		for l, g := range s.GlobalIDs {
			g2l[g] = l
		}
	}
	for _, s := range systems {
		for qi := range systems {
			q := systems[qi]
			if q.Rank == s.Rank {
				continue
			}
			// Does q receive anything from s?
			for _, nb := range q.Neigh {
				if nb.Rank != s.Rank {
					continue
				}
				send := make([]int, nb.RecvLen)
				for k := 0; k < nb.RecvLen; k++ {
					g := q.ExtGlobal[nb.RecvOff+k]
					l := g2l[g]
					if l >= s.NLoc() || s.GlobalIDs[l] != g {
						panic(fmt.Sprintf("dsys: rank %d needs global %d from %d, which does not own it",
							q.Rank, g, s.Rank))
					}
					send[k] = l
				}
				// Record (or create) the neighbor entry on s for q.
				found := false
				for ni := range s.Neigh {
					if s.Neigh[ni].Rank == q.Rank {
						s.Neigh[ni].SendIdx = send
						found = true
						break
					}
				}
				if !found {
					// s sends to q but receives nothing from it (possible
					// with unsymmetric patterns).
					s.Neigh = append(s.Neigh, Neighbor{Rank: q.Rank, SendIdx: send, RecvOff: s.NExt(), RecvLen: 0})
				}
			}
		}
		sort.Slice(s.Neigh, func(i, j int) bool { return s.Neigh[i].Rank < s.Neigh[j].Rank })
		s.halo = Halo{Tag: tagExchange, Links: s.Links(s.NLoc())}
		s.halo.Seal()
	}
}

// Links spells Neigh as the links of a Halo whose destination holds the
// external buffer from recvBase on. Send is the neighbor's SendIdx itself,
// shared read-only: an exchange over another numbering of the owned
// unknowns puts its own translation in its place.
func (s *System) Links(recvBase int) []Link {
	recv := make([]int, s.NExt()) // the neighbors' blocks tile the external buffer
	for k := range recv {
		recv[k] = recvBase + k
	}
	links := make([]Link, len(s.Neigh))
	for ni, nb := range s.Neigh {
		end := nb.RecvOff + nb.RecvLen
		links[ni] = Link{Peer: nb.Rank, Send: nb.SendIdx, Recv: recv[nb.RecvOff:end:end]}
	}
	return links
}

// tagExchange is the message tag used by interface exchanges.
const tagExchange = 100

// Exchange refreshes the external-interface section of ext (length
// NLoc+NExt, owned values in ext[:NLoc] already filled by the caller) with
// the neighbors' interface values, under a KindExchange span. A failure —
// see Halo.Exchange for what is validated — comes back as an
// *ExchangeError, never as a panic or a silent wrong answer.
func (s *System) Exchange(c *dist.Comm, ext []float64) error {
	if len(ext) != s.NLoc()+s.NExt() {
		return &ExchangeError{Rank: s.Rank, Peer: -1, Tag: tagExchange,
			Reason: fmt.Sprintf("ext buffer length %d, want %d", len(ext), s.NLoc()+s.NExt())}
	}
	sp := c.BeginSpan(obs.KindExchange, "")
	defer c.EndSpan(sp)
	return s.halo.Exchange(c, ext, ext, false)
}

// MatVec computes y = A_global·x restricted to this subdomain: x and y are
// owned-length vectors; the external values needed by interface rows are
// fetched from the neighbors. ext must have length NLoc+NExt and is used
// as scratch. On an exchange failure y is left untouched and the typed
// error is returned; the caller decides how to degrade.
func (s *System) MatVec(c *dist.Comm, y, x, ext []float64) error {
	paranoid.CheckMinLen("dsys: MatVec x", len(x), s.NLoc())
	paranoid.CheckMinLen("dsys: MatVec y", len(y), s.NLoc())
	sp := c.BeginSpan(obs.KindSpMV, "")
	defer c.EndSpan(sp)
	copy(ext, x)
	if err := s.Exchange(c, ext); err != nil {
		return err
	}
	s.A.MulVecTo(y, ext)
	c.Compute(2 * float64(s.A.NNZ()))
	return nil
}

// Dot returns the global inner product of two distributed vectors.
func (s *System) Dot(c *dist.Comm, x, y []float64) float64 {
	local := sparse.Dot(x[:s.NLoc()], y[:s.NLoc()])
	c.Compute(2 * float64(s.NLoc()))
	return c.AllReduceSum(local)
}

// AxpyDot computes y += a·x on the owned entries and returns the global
// inner product of the updated y with z in one pass (see sparse.AxpyDot;
// z may be y). It charges the inner product only — the caller accounts
// for the update, as it does for its other vector work.
func (s *System) AxpyDot(c *dist.Comm, a float64, x, y, z []float64) float64 {
	n := s.NLoc()
	local := sparse.AxpyDot(a, x[:n], y[:n], z[:n])
	c.Compute(2 * float64(n))
	return c.AllReduceSum(local)
}

// Norm2 returns the global Euclidean norm of a distributed vector.
func (s *System) Norm2(c *dist.Comm, x []float64) float64 {
	local := sparse.Dot(x[:s.NLoc()], x[:s.NLoc()])
	c.Compute(2 * float64(s.NLoc()))
	sum := c.AllReduceSum(local)
	if sum < 0 {
		sum = 0
	}
	return math.Sqrt(sum)
}

// Gather reassembles a global vector from the per-rank owned vectors.
// Test/diagnostic helper: the solvers never materialize global vectors.
func Gather(systems []*System, locals [][]float64) []float64 {
	out := make([]float64, systems[0].N)
	for r, s := range systems {
		for l, g := range s.GlobalIDs {
			out[g] = locals[r][l]
		}
	}
	return out
}

// Scatter splits a global vector into per-rank owned vectors.
func Scatter(systems []*System, x []float64) [][]float64 {
	out := make([][]float64, len(systems))
	for r, s := range systems {
		v := make([]float64, s.NLoc())
		for l, g := range s.GlobalIDs {
			v[l] = x[g]
		}
		out[r] = v
	}
	return out
}
