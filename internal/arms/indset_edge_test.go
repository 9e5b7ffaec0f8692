package arms

import (
	"testing"

	"parapre/internal/sparse"
)

// checkNoCrossEdges asserts the group-independent-set invariant: no edge
// of a couples two different groups.
func checkNoCrossEdges(t *testing.T, a *sparse.CSR, group []int) {
	t.Helper()
	for v := 0; v < a.Rows; v++ {
		cols, _ := a.Row(v)
		for _, w32 := range cols {
			w := int(w32)
			if w == v || w >= a.Rows {
				continue
			}
			if group[v] >= 0 && group[w] >= 0 && group[v] != group[w] {
				t.Fatalf("edge (%d,%d) couples groups %d and %d", v, w, group[v], group[w])
			}
		}
	}
}

// tridiag builds the n×n tridiagonal stencil used by the edge cases.
func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

// maxGroup <= 0 must be clamped to 1, not panic or produce empty groups:
// every group then holds exactly one vertex and the invariant still
// holds.
func TestGroupIndependentSetNonPositiveMaxGroup(t *testing.T) {
	a := tridiag(12)
	for _, mg := range []int{0, -3} {
		group, ng := GroupIndependentSet(a, mg)
		checkNoCrossEdges(t, a, group)
		counts := make([]int, ng)
		for _, g := range group {
			if g >= 0 {
				counts[g]++
			}
		}
		for g, c := range counts {
			if c > 1 {
				t.Fatalf("maxGroup=%d: group %d holds %d vertices, cap is 1", mg, g, c)
			}
			if c == 0 {
				t.Fatalf("maxGroup=%d: group %d empty", mg, g)
			}
		}
	}
}

// A fully dense row couples every vertex: after the first vertex seeds a
// group, everything that touches two groups (or a full one) falls into
// the separator, and the invariant must survive.
func TestGroupIndependentSetDenseRow(t *testing.T) {
	const n = 10
	coo := sparse.NewCOO(n, n, n*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		// Row 0 and column 0 dense: vertex 0 neighbors everyone.
		if i > 0 {
			coo.Add(0, i, -1)
			coo.Add(i, 0, -1)
		}
	}
	a := coo.ToCSR()
	group, ng := GroupIndependentSet(a, 3)
	checkNoCrossEdges(t, a, group)
	if ng < 1 {
		t.Fatalf("ngroups = %d, want at least the seed group", ng)
	}
	perm, nB, blocks := IndSetPerm(group, ng)
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	if nB < 1 || nB > n {
		t.Fatalf("grouped part %d out of range", nB)
	}
	if len(blocks) != ng {
		t.Fatalf("blocks %d, want %d", len(blocks), ng)
	}
}

// The empty matrix is a degenerate but legal input: no groups, no
// separator, empty permutation.
func TestGroupIndependentSetEmptyMatrix(t *testing.T) {
	a := sparse.NewCSR(0, 0, 0)
	group, ng := GroupIndependentSet(a, 4)
	if len(group) != 0 {
		t.Fatalf("group length %d, want 0", len(group))
	}
	if ng != 0 {
		t.Fatalf("ngroups = %d, want 0", ng)
	}
	perm, nB, blocks := IndSetPerm(group, ng)
	if len(perm) != 0 || nB != 0 || len(blocks) != 0 {
		t.Fatalf("perm=%v nB=%d blocks=%v, want all empty", perm, nB, blocks)
	}
}

// IndSetPerm must be a true permutation (round-trip through its inverse
// is the identity), with grouped vertices first in group order and the
// separator last, matching the group assignment exactly.
func TestIndSetPermRoundTrip(t *testing.T) {
	a := tridiag(23)
	group, ng := GroupIndependentSet(a, 4)
	perm, nB, blocks := IndSetPerm(group, ng)
	n := len(group)
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, old := range perm {
		if old < 0 || int(old) >= n || seen[old] {
			t.Fatalf("perm is not a permutation: %v", perm)
		}
		seen[old] = true
	}
	inv := perm.Inverse()
	for v := 0; v < n; v++ {
		if int(perm[inv[v]]) != v {
			t.Fatalf("inverse round-trip broken at %d", v)
		}
	}
	// New position classifies consistently with the assignment.
	for newIdx, old := range perm {
		if newIdx < nB {
			g := group[old]
			if g < 0 {
				t.Fatalf("separator vertex %d landed in the grouped part", old)
			}
			ext := blocks[g]
			if newIdx < ext[0] || newIdx >= ext[1] {
				t.Fatalf("vertex %d of group %d at %d outside extent %v", old, g, newIdx, ext)
			}
		} else if group[old] >= 0 {
			t.Fatalf("grouped vertex %d landed in the separator part", old)
		}
	}
	// Extents tile [0, nB) in order.
	prev := 0
	for g, ext := range blocks {
		if ext[0] != prev {
			t.Fatalf("group %d extent %v not contiguous after %d", g, ext, prev)
		}
		if ext[1] < ext[0] {
			t.Fatalf("group %d extent %v inverted", g, ext)
		}
		prev = ext[1]
	}
	if prev != nB {
		t.Fatalf("extents end at %d, want %d", prev, nB)
	}
}
