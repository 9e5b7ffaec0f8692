// Package arms implements the Algebraic Recursive Multilevel Solver of
// Saad & Suchomel that the paper's Schur 2 preconditioner uses as its
// approximate subdomain solver (§2). The construction starts from
// group-independent sets: groups of unknowns with no coupling between
// different groups (Fig. 2 of the paper). Ordering the group unknowns
// first makes the leading block B exactly block-diagonal (one small dense
// block per group), so the reduction to the Schur complement of the
// remaining "local interface" unknowns is cheap and can be repeated
// recursively.
package arms

import "parapre/internal/sparse"

// GroupIndependentSet partitions the vertices of the (structurally
// symmetric) sparsity graph of a into groups with no edges between
// different groups, plus a separator. It returns group[v] = id ≥ 0 for
// grouped vertices and −1 for separator vertices, along with the number
// of groups. maxGroup caps the group size (≥ 1).
//
// Greedy single pass: an unassigned vertex joins the unique neighboring
// group if it has one (and the group has room), becomes a separator if it
// neighbors two different groups, and otherwise seeds a new group. The
// no-cross-edges invariant holds by induction: both endpoints of an edge
// see each other's assignment when processed.
func GroupIndependentSet(a *sparse.CSR, maxGroup int) (group []int, ngroups int) {
	n := a.Rows
	if maxGroup < 1 {
		maxGroup = 1
	}
	group = make([]int, n)
	for i := range group {
		group[i] = -2 // unassigned
	}
	size := []int{}
	for v := 0; v < n; v++ {
		if group[v] != -2 {
			continue
		}
		// Inspect assigned neighbors.
		gFound := -1
		conflict := false
		cols, _ := a.Row(v)
		for _, c := range cols {
			w := int(c)
			if w == v || w >= n {
				continue
			}
			g := group[w]
			if g < 0 {
				continue
			}
			if gFound == -1 {
				gFound = g
			} else if gFound != g {
				conflict = true
				break
			}
		}
		switch {
		case conflict:
			group[v] = -1
		case gFound >= 0 && size[gFound] < maxGroup:
			group[v] = gFound
			size[gFound]++
		case gFound >= 0:
			// Unique neighboring group, but full: separator (a fresh
			// group here would create a cross-group edge).
			group[v] = -1
		default:
			group[v] = len(size)
			size = append(size, 1)
		}
	}
	return group, len(size)
}

// IndSetPerm builds the ARMS level permutation from a group assignment:
// grouped vertices first (ordered by group id, so B is block diagonal
// with contiguous blocks), separator vertices last. It returns the
// permutation (new→old), the size of the grouped part, and the contiguous
// extent [start, end) of each group in the new ordering.
func IndSetPerm(group []int, ngroups int) (perm sparse.Perm, nB int, blocks [][2]int) {
	// One counting sort by group id, the separator as the last bucket;
	// vertices keep their ascending order within a bucket.
	next := make([]int, ngroups+1)
	for _, g := range group {
		if g >= 0 {
			next[g]++
		}
	}
	blocks = make([][2]int, ngroups)
	for g := range blocks {
		blocks[g] = [2]int{nB, nB + next[g]}
		next[g] = nB
		nB = blocks[g][1]
	}
	next[ngroups] = nB
	perm = make(sparse.Perm, len(group))
	for v, g := range group {
		if g < 0 {
			g = ngroups
		}
		perm[next[g]] = int32(v)
		next[g]++
	}
	return perm, nB, blocks
}
