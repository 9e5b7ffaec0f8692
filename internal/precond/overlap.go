package precond

import (
	"fmt"
	"slices"
	"sync"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/par"
	"parapre/internal/sparse"
)

// OverlapBlock is the paper's §1.1 extension of the simple block
// preconditioners: each subdomain is enlarged by `levels` layers of
// matrix-graph neighbors beyond the minimum (distance-1) overlap, the
// enlarged block is factored incompletely, and the preconditioner applies
// a restricted-additive-Schwarz sweep — residuals are gathered over the
// overlap, the enlarged system is solved approximately, and only the
// owned part of the correction is kept (restriction avoids the
// double-counting of classical additive Schwarz and converges faster).
// levels = 0 degenerates to the plain Block preconditioner (with a halo
// of zero extra rows).
type OverlapBlock struct {
	name string
	s    *dsys.System
	f    *ilu.LU

	extNodes []int32 // global ids of the enlarged subdomain, owned first
	ownN     int

	// halo gathers r over the enlarged block: owned values go to the peers
	// whose overlap holds them, the peers' values land on the tail
	// [ownN:] of the enlarged residual.
	halo dsys.Halo

	// pool recycles the enlarged residual and solution an Apply works in,
	// leased once per solve (dist.Comm.Lease).
	pool sync.Pool

	dsys.CommErr // first halo failure seen by Apply
}

const tagOverlapR = 320

// OverlapOptions selects the factorization of the enlarged blocks.
type OverlapOptions struct {
	Levels  int             // extra overlap layers beyond the minimum
	UseILU0 bool            // true: ILU(0) (Block 1 flavor); false: ILUT (Block 2 flavor)
	ILUT    ilu.ILUTOptions // used when UseILU0 is false
}

// BuildOverlapBlocks constructs one OverlapBlock per rank from the global
// matrix and the subdomain systems, and wires the halo exchanges; the
// systems' GlobalIDs say which rank owns each row. The per-rank
// block growth and factorization are independent and run on the
// shared-memory worker pool; only the cross-rank halo wiring is
// sequential. Apply is collective.
func BuildOverlapBlocks(a *sparse.CSR, systems []*dsys.System, opt OverlapOptions) ([]*OverlapBlock, error) {
	p := len(systems)
	all := make([]*OverlapBlock, p)
	// owner and local place every global row: its rank, -1 for none, and
	// its index among that rank's owned unknowns.
	owner, local := make([]int32, a.Rows), make([]int32, a.Rows)
	for g := range owner {
		owner[g] = -1
	}
	for r, s := range systems {
		for l, g := range s.GlobalIDs {
			owner[g], local[g] = int32(r), int32(l)
		}
	}

	errs := make([]error, p)
	par.Run(p, func(r int) {
		s := systems[r]
		ob := &OverlapBlock{s: s, ownN: s.NLoc(), halo: dsys.Halo{Tag: tagOverlapR}}
		if opt.UseILU0 {
			ob.name = fmt.Sprintf("Block 1 (+%d overlap)", opt.Levels)
		} else {
			ob.name = fmt.Sprintf("Block 2 (+%d overlap)", opt.Levels)
		}

		// Grow the subdomain by `levels` graph layers.
		inSet := make(map[int32]bool, s.NLoc()*2)
		ob.extNodes = append(ob.extNodes, s.GlobalIDs...)
		for _, g := range s.GlobalIDs {
			inSet[g] = true
		}
		frontier := s.GlobalIDs
		for lev := 0; lev < opt.Levels; lev++ {
			var next []int32
			for _, g := range frontier {
				cols, _ := a.Row(int(g))
				for _, j := range cols {
					if !inSet[j] {
						inSet[j] = true
						next = append(next, j)
					}
				}
			}
			slices.Sort(next)
			ob.extNodes = append(ob.extNodes, next...)
			frontier = next
		}

		// Factor the enlarged block (zero-Dirichlet exterior).
		blk := sparse.Extract(a, ob.extNodes, ob.extNodes)
		var err error
		if opt.UseILU0 {
			ob.f, err = ilu.ILU0(blk)
		} else {
			ob.f, err = ilu.ILUT(blk, opt.ILUT)
		}
		if err != nil {
			errs[r] = fmt.Errorf("precond: overlap block rank %d: %w", r, err)
			return
		}
		ob.pool.New = newVecPair(len(ob.extNodes))
		all[r] = ob
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Wire halos: rank r needs values of extNodes[ownN:] from their
	// owners.
	for r, ob := range all {
		needs := map[int][]int32{} // owner → ext index
		for k := ob.ownN; k < len(ob.extNodes); k++ {
			g := ob.extNodes[k]
			q := int(owner[g])
			if q < 0 {
				return nil, fmt.Errorf("precond: overlap wiring: rank %d needs node %d, which no rank owns", r, g)
			}
			needs[q] = append(needs[q], int32(k))
		}
		for q, extIdx := range needs {
			send := make([]int32, len(extIdx))
			for t, k := range extIdx {
				send[t] = local[ob.extNodes[k]]
			}
			ob.halo.Link(q).Recv = extIdx
			all[q].halo.Link(r).Send = send
		}
	}
	for _, ob := range all {
		ob.halo.Seal()
	}
	return all, nil
}

// Apply gathers the residual over the overlap, runs one incomplete solve
// on the enlarged block, and keeps the owned part (restricted additive
// Schwarz). Must be called collectively after BuildOverlapBlocks.
func (p *OverlapBlock) Apply(c *dist.Comm, z, r []float64) {
	sc := c.Lease(&p.pool).(*vecPair)
	copy(sc.r[:p.ownN], r)
	for i := p.ownN; i < len(sc.r); i++ {
		sc.r[i] = 0
	}
	err := p.halo.Exchange(c, sc.r, r, false)
	p.f.Solve(sc.z, sc.r)
	c.Compute(p.f.SolveFlops())
	copy(z, sc.z[:p.ownN])
	if err != nil {
		p.Record(err)
		poisonNaN(z)
	}
}

// Name identifies the preconditioner variant, including the overlap depth.
func (p *OverlapBlock) Name() string { return p.name }

// ExtSize reports (owned, total) block sizes for diagnostics.
func (p *OverlapBlock) ExtSize() (owned, total int) { return p.ownN, len(p.extNodes) }

// SetupFlops estimates the construction cost (factor sweeps).
func (p *OverlapBlock) SetupFlops() float64 { return 2 * float64(p.f.NNZ()) }
