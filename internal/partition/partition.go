// Package partition divides the nodes of a grid (equivalently, the rows of
// the distributed matrix) among P subdomains. It provides the two schemes
// the paper uses: a general graph partitioner in the spirit of Metis
// (greedy graph growing, recursive bisection, Fiduccia–Mattheyses boundary
// refinement, seeded randomness), and the "simple" partitioner of §5.1
// that cuts structured grids into rectangles or boxes.
//
// The paper observes (§4.3) that the two parallel machines partitioned the
// grid differently because their random number generators differed, which
// changed the iteration counts. The seed parameter reproduces that
// machine dependence deterministically.
package partition

import (
	"fmt"
	"math/rand"
)

// Graph is an undirected graph in CSR adjacency form: the neighbors of
// vertex i are Adj[Ptr[i]:Ptr[i+1]]. Edges must be symmetric.
type Graph struct {
	Ptr []int
	Adj []int
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Ptr) - 1 }

// Neighbors returns the adjacency list of vertex v.
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// PartitionError reports an invalid partitioning request: a
// non-positive part count, or a malformed adjacency structure. It is the
// package's documented typed error, so callers can match on it instead
// of recovering a panic or string-matching.
type PartitionError struct {
	P      int    // requested part count
	N      int    // vertex count of the graph
	Reason string // what was wrong with the request
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("partition: p=%d over %d vertices: %s", e.P, e.N, e.Reason)
}

// General partitions the graph into p parts using seeded greedy graph
// growing with recursive bisection and FM refinement. It returns part,
// with part[v] ∈ [0, p) for every vertex v. Every part is non-empty
// whenever p ≤ NumVertices; when p exceeds the vertex count, vertex v is
// assigned to part v and the parts ≥ NumVertices stay empty — there are
// simply not enough vertices to populate them (the degenerate request is
// deliberately legal: empty ranks are supported downstream, which core's
// TestEmptyRanksConverge holds the solvers to). A non-positive p or a
// malformed graph returns a *PartitionError.
func General(g *Graph, p int, seed int64) ([]int, error) {
	n := g.NumVertices()
	if p < 1 {
		return nil, &PartitionError{P: p, N: n, Reason: "part count must be positive"}
	}
	if len(g.Ptr) == 0 || g.Ptr[n] != len(g.Adj) {
		return nil, &PartitionError{P: p, N: n, Reason: "malformed adjacency structure"}
	}
	part := make([]int, n)
	if p == 1 {
		return part, nil
	}
	if p >= n {
		for v := range part {
			part[v] = v
		}
		return part, nil
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	bisect(g, verts, 0, p, part, rng)
	return part, nil
}

// bisect assigns part ids [base, base+parts) to the vertex set verts.
func bisect(g *Graph, verts []int, base, parts int, part []int, rng *rand.Rand) {
	if parts == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	left := parts / 2
	right := parts - left
	// Each side must receive at least as many vertices as parts it will
	// be split into, or deeper recursion would leave empty parts.
	targetLeft := len(verts) * left / parts
	if targetLeft < left {
		targetLeft = left
	}
	if len(verts)-targetLeft < right {
		targetLeft = len(verts) - right
	}

	inSet := makeMembership(g.NumVertices(), verts)
	side := growRegion(g, verts, targetLeft, inSet, rng)
	refine(g, verts, side, inSet, targetLeft, left, right)

	var lv, rv []int
	for _, v := range verts {
		if side[v] {
			lv = append(lv, v)
		} else {
			rv = append(rv, v)
		}
	}
	// Degenerate growth (disconnected pieces) can starve one side; steal
	// arbitrarily to keep every downstream part satisfiable.
	for len(lv) < left && len(rv) > right {
		lv = append(lv, rv[len(rv)-1])
		rv = rv[:len(rv)-1]
	}
	for len(rv) < right && len(lv) > left {
		rv = append(rv, lv[len(lv)-1])
		lv = lv[:len(lv)-1]
	}
	bisect(g, lv, base, left, part, rng)
	bisect(g, rv, base+left, right, part, rng)
}

func makeMembership(n int, verts []int) []bool {
	in := make([]bool, n)
	for _, v := range verts {
		in[v] = true
	}
	return in
}

// growRegion grows a BFS region of the requested size from a random start,
// restarting from a new random seed vertex whenever the frontier dies
// (disconnected subgraphs). It returns the membership of the grown side.
func growRegion(g *Graph, verts []int, target int, inSet []bool, rng *rand.Rand) []bool {
	side := make([]bool, len(inSet))
	if target <= 0 {
		return side
	}
	taken := 0
	visited := make([]bool, len(inSet))
	queue := make([]int, 0, target)
	pick := func() int {
		for tries := 0; tries < 32; tries++ {
			v := verts[rng.Intn(len(verts))]
			if !visited[v] {
				return v
			}
		}
		for _, v := range verts {
			if !visited[v] {
				return v
			}
		}
		return -1
	}
	for taken < target {
		s := pick()
		if s < 0 {
			break
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 && taken < target {
			v := queue[0]
			queue = queue[1:]
			side[v] = true
			taken++
			for _, w := range g.Neighbors(v) {
				if inSet[w] && !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return side
}

// refine runs Fiduccia–Mattheyses-style passes: repeatedly move the
// boundary vertex with the best gain to the other side, allowing moves
// that keep the left-side size within ±imbalance of the target, and keep
// the best configuration seen. A few passes suffice for FEM graphs.
func refine(g *Graph, verts []int, side []bool, inSet []bool, targetLeft, minLeft, minRight int) {
	const passes = 4
	imbalance := len(verts)/20 + 1
	leftSize := 0
	for _, v := range verts {
		if side[v] {
			leftSize++
		}
	}
	gain := func(v int) int {
		ext, int_ := 0, 0
		for _, w := range g.Neighbors(v) {
			if !inSet[w] {
				continue
			}
			if side[w] == side[v] {
				int_++
			} else {
				ext++
			}
		}
		return ext - int_
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		for _, v := range verts {
			gv := gain(v)
			if gv <= 0 {
				continue
			}
			// Balance guard, with hard floors so each side keeps enough
			// vertices for its downstream parts.
			if side[v] {
				if leftSize-1 < targetLeft-imbalance || leftSize-1 < minLeft {
					continue
				}
				leftSize--
			} else {
				if leftSize+1 > targetLeft+imbalance || len(verts)-(leftSize+1) < minRight {
					continue
				}
				leftSize++
			}
			side[v] = !side[v]
			moved = true
		}
		if !moved {
			break
		}
	}
}

// EdgeCut counts the edges whose endpoints lie in different parts. Each
// undirected edge is counted once.
func EdgeCut(g *Graph, part []int) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			if w > v && part[v] != part[w] {
				cut++
			}
		}
	}
	return cut
}

// Sizes returns the number of vertices in each of the p parts.
func Sizes(part []int, p int) []int {
	s := make([]int, p)
	for _, q := range part {
		s[q]++
	}
	return s
}

// Imbalance returns max(sizes)·p/n, the standard load-imbalance factor
// (1.0 is perfect).
func Imbalance(part []int, p int) float64 {
	s := Sizes(part, p)
	max := 0
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return float64(max) * float64(p) / float64(len(part))
}
