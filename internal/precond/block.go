package precond

import (
	"fmt"
	"sync"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/order"
	"parapre/internal/sparse"
)

// Block is the simple parallel block (block-Jacobi) preconditioner: each
// subdomain independently solves A_i·z_i = r_i approximately with the
// backward/forward procedure of an incomplete factorization. No
// communication is involved, which gives these preconditioners their
// excellent per-iteration scalability — and, for Block 1, the often slow
// convergence the paper reports. One type serves every factor the kinds
// hold: ILU(0) (Block 1), ILUT (Block 2) and IC(0) (Block IC), the first
// two optionally RCM-ordered.
type Block struct {
	name string
	f    factor
	// perm is the RCM ordering P, nil for a factor of A_i itself. The
	// factor is then of P·A_i·Pᵀ: Apply gathers r through P and scatters the
	// solution back. The permuted vectors are a pair the rank leases from
	// pool for its solve (dist.Comm.Lease), so simultaneous core.Session
	// solves over one preconditioner set share nothing mutable.
	perm sparse.Perm
	pool sync.Pool
}

// factor is a Block's subdomain solver: *ilu.LU or *ilu.Chol.
type factor interface {
	Solve(z, r []float64)
	SolveFlops() float64
	NNZ() int
}

// vecPair is the input and output of one solve in another numbering: a
// permuted subdomain block or an enlarged one.
type vecPair struct{ r, z []float64 }

// newVecPair is a pool's New for n-long vecPairs.
func newVecPair(n int) func() any {
	return func() any { return &vecPair{r: make([]float64, n), z: make([]float64, n)} }
}

// newBlock wraps the factor a constructor built, or names the rank in the
// error of one that failed. Apply permutes through perm when it is not
// nil.
func newBlock(s *dsys.System, name string, f factor, err error, perm sparse.Perm) (*Block, error) {
	if err != nil {
		return nil, fmt.Errorf("precond: %s rank %d: %w", name, s.Rank, err)
	}
	b := &Block{name: name, f: f, perm: perm}
	if perm != nil {
		b.pool.New = newVecPair(len(perm))
	}
	return b, nil
}

// NewBlock1 builds the Block 1 preconditioner (ILU(0) subdomain solver)
// for this rank's subdomain.
func NewBlock1(s *dsys.System) (*Block, error) {
	f, err := ilu.ILU0(s.OwnedBlock())
	return newBlock(s, string(KindBlock1), f, err, nil)
}

// NewBlock2 builds the Block 2 preconditioner (ILUT subdomain solver) for
// this rank's subdomain.
func NewBlock2(s *dsys.System, opt ilu.ILUTOptions) (*Block, error) {
	f, err := ilu.ILUT(s.OwnedBlock(), opt)
	return newBlock(s, string(KindBlock2), f, err, nil)
}

// NewBlockIC builds Block IC, block Jacobi with an IC(0) subdomain solver
// — a symmetric positive definite preconditioner, the correct companion
// for the distributed CG baseline on the paper's SPD test cases (1–4, 6).
// A subdomain whose IC(0) had to repair a pivot is not SPD there, and
// its factor would break the solve down at the first iteration; Block IC
// refuses it at set-up with the *ilu.NotSPDError.
func NewBlockIC(s *dsys.System) (*Block, error) {
	c, err := ilu.IC0(s.OwnedBlock())
	if err == nil {
		err = c.Repaired()
	}
	return newBlock(s, string(KindBlockIC), c, err, nil)
}

// NewBlockOrdered builds a block preconditioner whose subdomain block is
// RCM-reordered before factoring — a fill-quality upgrade especially for
// ILUT with small LFil on irregularly numbered subdomains (general graph
// partitions produce exactly those).
func NewBlockOrdered(s *dsys.System, useILU0 bool, opt ilu.ILUTOptions) (*Block, error) {
	blk := s.OwnedBlock()
	perm := order.RCM(blk)
	pblk := sparse.PermuteSym(blk, perm)
	if useILU0 {
		f, err := ilu.ILU0(pblk)
		return newBlock(s, string(KindBlock1)+" (RCM)", f, err, perm)
	}
	f, err := ilu.ILUT(pblk, opt)
	return newBlock(s, string(KindBlock2)+" (RCM)", f, err, perm)
}

// Apply performs the subdomain backward/forward solve. The model charges
// the factor's solve, plus 2n for the gather and scatter of the RCM
// permutation.
func (b *Block) Apply(c *dist.Comm, z, r []float64) {
	if b.perm == nil {
		b.f.Solve(z, r)
		c.Compute(b.f.SolveFlops())
		return
	}
	sc := c.Lease(&b.pool).(*vecPair)
	b.perm.ApplyVecTo(sc.r, r)
	b.f.Solve(sc.z, sc.r)
	b.perm.ScatterVecTo(z, sc.z)
	c.Compute(b.f.SolveFlops() + 2*float64(len(r)))
}

// Name returns the paper's notation for this preconditioner.
func (b *Block) Name() string { return b.name }

// SetupFlops estimates the construction cost: a sweep over the stored
// factor, 2·nnz.
func (b *Block) SetupFlops() float64 { return 2 * float64(b.f.NNZ()) }
