// Package order provides fill-reducing orderings for the subdomain
// factorizations — the SPARSKIT-era companion of the ILU preconditioners.
// Reverse Cuthill–McKee concentrates the matrix profile near the
// diagonal, which reduces the fill an ILUT factorization discards and
// typically improves its quality at fixed lfil.
package order

import (
	"sort"

	"parapre/internal/sparse"
)

// RCM returns the reverse Cuthill–McKee permutation (new→old) of the
// symmetrized sparsity graph of a. Disconnected components are ordered
// one after another, each from its own pseudo-peripheral start.
func RCM(a *sparse.CSR) sparse.Perm {
	n := a.Rows
	adj := symmetrizedAdj(a)
	deg := func(v int) int { return len(adj[v]) }

	visited := make([]bool, n)
	order := make([]int, 0, n)
	buf := make([]int, 0, n)

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		s := pseudoPeripheral(adj, start)
		// BFS with degree-sorted neighbor expansion (Cuthill–McKee).
		visited[s] = true
		queue := append(buf[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			nbrs := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(x, y int) bool { return deg(nbrs[x]) < deg(nbrs[y]) })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse for RCM.
	perm := make(sparse.Perm, n)
	for i, v := range order {
		perm[n-1-i] = int32(v)
	}
	return perm
}

// pseudoPeripheral finds an approximately peripheral vertex by repeated
// BFS to the farthest level (the George–Liu heuristic).
func pseudoPeripheral(adj [][]int, start int) int {
	v := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		levels, far := bfsLevels(adj, v)
		if levels <= lastEcc {
			break
		}
		lastEcc = levels
		v = far
	}
	return v
}

// bfsLevels returns the eccentricity of v within its component and a
// minimum-degree vertex of the last level.
func bfsLevels(adj [][]int, v int) (int, int) {
	dist := map[int]int{v: 0}
	queue := []int{v}
	lastLevel := []int{v}
	depth := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range adj[u] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				if dist[w] > depth {
					depth = dist[w]
					lastLevel = lastLevel[:0]
				}
				if dist[w] == depth {
					lastLevel = append(lastLevel, w)
				}
				queue = append(queue, w)
			}
		}
	}
	best := lastLevel[0]
	for _, w := range lastLevel {
		if len(adj[w]) < len(adj[best]) {
			best = w
		}
	}
	return depth, best
}

func symmetrizedAdj(a *sparse.CSR) [][]int {
	n := a.Rows
	set := make([]map[int]bool, n)
	for i := range set {
		set[i] = map[int]bool{}
	}
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if j := int(c); j != i && j < n {
				set[i][j] = true
				set[j][i] = true
			}
		}
	}
	adj := make([][]int, n)
	for i := range adj {
		for j := range set[i] {
			adj[i] = append(adj[i], j)
		}
		sort.Ints(adj[i])
	}
	return adj
}

// Bandwidth returns max|i−j| over the stored entries of a.
func Bandwidth(a *sparse.CSR) int {
	b := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			d := i - int(j)
			if d < 0 {
				d = -d
			}
			if d > b {
				b = d
			}
		}
	}
	return b
}

// Profile returns the sum over rows of (i − min column in row i), the
// envelope size that RCM minimizes heuristically.
func Profile(a *sparse.CSR) int {
	p := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		minJ := i
		for _, j := range cols {
			if int(j) < minJ {
				minJ = int(j)
			}
		}
		p += i - minJ
	}
	return p
}
