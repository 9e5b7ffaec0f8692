package dsys

import (
	"fmt"

	"parapre/internal/sparse"
)

// DistributeRows builds the per-rank subdomain systems from row slabs:
// slab[r] is a CSR matrix in GLOBAL numbering whose only stored rows are
// the rows owned by rank r (rhs[r][g] likewise holds only owned values,
// but is passed full-length for addressing convenience). This is the
// paper's §1.1 distributed-discretization workflow: each processor
// discretizes its own subdomain and the global system never exists —
// DistributeRows never forms the union matrix.
//
// The resulting systems are identical to Distribute(globalA, …) applied
// to the union of the slabs (a property the tests assert).
func DistributeRows(slabs []*sparse.CSR, rhs [][]float64, part []int) ([]*System, error) {
	p := len(slabs)
	if p == 0 {
		return nil, fmt.Errorf("dsys: no slabs")
	}
	n := slabs[0].Rows
	if len(part) != n {
		return nil, fmt.Errorf("dsys: partition length %d, want %d", len(part), n)
	}
	for r, s := range slabs {
		if s.Rows != n || s.Cols != n {
			return nil, fmt.Errorf("dsys: slab %d is %d×%d, want %d×%d", r, s.Rows, s.Cols, n, n)
		}
		if len(rhs[r]) != n {
			return nil, fmt.Errorf("dsys: rhs %d length %d, want %d", r, len(rhs[r]), n)
		}
	}
	// Validate ownership: every row must be stored by exactly its owner.
	for g := 0; g < n; g++ {
		r := part[g]
		if r < 0 || r >= p {
			return nil, fmt.Errorf("dsys: row %d owned by invalid rank %d", g, r)
		}
		for q, s := range slabs {
			has := s.RowNNZ(g) > 0
			if has && q != r {
				return nil, fmt.Errorf("dsys: rank %d stores row %d owned by rank %d", q, g, r)
			}
		}
		if slabs[r].RowNNZ(g) == 0 {
			return nil, fmt.Errorf("dsys: owner %d has empty row %d", r, g)
		}
	}

	// Classification needs only each owner's own rows: a node is interface
	// iff its row references another rank's column (the pattern is
	// structurally symmetric for FEM systems, so this is symmetric).
	isIface := make([]bool, n)
	for g := 0; g < n; g++ {
		cols, _ := slabs[part[g]].Row(g)
		for _, j := range cols {
			if part[j] != part[g] {
				isIface[g] = true
				break
			}
		}
	}

	// buildLocal reads only the rows rank r owns, which are all its slab
	// stores.
	systems := make([]*System, p)
	g2l := make([]int, n)
	for r := 0; r < p; r++ {
		systems[r] = buildLocal(slabs[r], rhs[r], part, r, p, isIface, g2l)
	}
	wireNeighbors(systems)
	// Same pre-warm as Distribute: decide the blocked-SpMV format now so
	// the first solve does not pay for block detection.
	for _, s := range systems {
		s.A.AutoBlocked()
	}
	return systems, nil
}
