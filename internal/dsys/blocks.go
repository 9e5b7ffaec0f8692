package dsys

import (
	"fmt"

	"parapre/internal/sparse"
)

// extractBlock copies the submatrix of s.A with rows [r0, r1) and columns
// [c0, c1), shifting indices to start at zero. It counts before it
// allocates: the blocks live as long as the preconditioner that asked for
// them, so they carry no spare capacity.
func (s *System) extractBlock(r0, r1, c0, c1 int) *sparse.CSR {
	nnz := 0
	for _, j := range s.A.ColIdx[s.A.RowPtr[r0]:s.A.RowPtr[r1]] {
		if j >= c0 && j < c1 {
			nnz++
		}
	}
	out := sparse.NewCSR(r1-r0, c1-c0, nnz)
	for i := r0; i < r1; i++ {
		cols, vals := s.A.Row(i)
		for k, j := range cols {
			if j >= c0 && j < c1 {
				out.ColIdx = append(out.ColIdx, j-c0)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i-r0+1] = len(out.ColIdx)
	}
	return out
}

// OwnedBlock returns the square NLoc×NLoc block of this subdomain's rows
// restricted to its owned columns — the A_i that the block preconditioners
// factor (external couplings are what block Jacobi discards).
func (s *System) OwnedBlock() *sparse.CSR { return s.extractBlock(0, s.NLoc(), 0, s.NLoc()) }

// BlockB returns B_i, the internal×internal block of eq. (4).
func (s *System) BlockB() *sparse.CSR { return s.extractBlock(0, s.NInt, 0, s.NInt) }

// BlockF returns F_i, the internal×interface coupling block.
func (s *System) BlockF() *sparse.CSR { return s.extractBlock(0, s.NInt, s.NInt, s.NLoc()) }

// BlockE returns E_i, the interface×internal coupling block.
func (s *System) BlockE() *sparse.CSR { return s.extractBlock(s.NInt, s.NLoc(), 0, s.NInt) }

// BlockC returns C_i, the interface×interface block.
func (s *System) BlockC() *sparse.CSR { return s.extractBlock(s.NInt, s.NLoc(), s.NInt, s.NLoc()) }

// BlockEExt returns the coupling of this subdomain's interface rows to the
// external interface unknowns — the E_ij blocks of eq. (5), concatenated
// over all neighbors j in external-buffer order.
func (s *System) BlockEExt() *sparse.CSR {
	return s.extractBlock(s.NInt, s.NLoc(), s.NLoc(), s.NLoc()+s.NExt())
}

// CheckStructure validates the subdomain invariants of §1.1: internal rows
// reference only owned columns (internal nodes have no couplings across
// the subdomain boundary), column indices are in range, and every external
// column is covered by exactly one neighbor's receive block.
func (s *System) CheckStructure() error {
	if err := s.A.CheckValid(); err != nil {
		return fmt.Errorf("rank %d: %w", s.Rank, err)
	}
	for i := 0; i < s.NInt; i++ {
		cols, _ := s.A.Row(i)
		for _, j := range cols {
			if j >= s.NLoc() {
				return fmt.Errorf("rank %d: internal row %d references external column %d", s.Rank, i, j)
			}
		}
	}
	covered := make([]int, s.NExt())
	for _, nb := range s.Neigh {
		for k := 0; k < nb.RecvLen; k++ {
			covered[nb.RecvOff+k]++
		}
	}
	for k, c := range covered {
		if c != 1 {
			return fmt.Errorf("rank %d: external slot %d covered %d times", s.Rank, k, c)
		}
	}
	if s.NInt > s.NLoc() {
		return fmt.Errorf("rank %d: NInt %d > NLoc %d", s.Rank, s.NInt, s.NLoc())
	}
	return nil
}
