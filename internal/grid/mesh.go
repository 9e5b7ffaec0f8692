// Package grid builds the computational grids of the paper's six test
// cases (§3): structured triangulations of the unit square, Kuhn
// tetrahedralizations of the unit cube, a curvilinear structured grid of a
// quarter ring, and a synthetic unstructured triangulation standing in for
// the paper's 521,185-node "special domain" of Test Case 3.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Mesh is a conforming simplicial mesh: triangles in 2D (NPE = 3) or
// tetrahedra in 3D (NPE = 4). Node coordinates are stored interleaved,
// Dim values per node; element connectivity is flattened, NPE node ids per
// element. Node ids are 32-bit, so a mesh has at most math.MaxInt32 nodes:
// Check and the generators refuse more.
type Mesh struct {
	Dim   int       // spatial dimension, 2 or 3
	NPE   int       // nodes per element, 3 or 4
	X     []float64 // len = NumNodes()*Dim
	Elems []int32   // len = NumElems()*NPE
}

// nodeCountErr reports n nodes as more than 32-bit node ids address, or
// returns nil. Check returns it; a generator asked for such a mesh panics
// with it, as it does on any other impossible size.
func nodeCountErr(op string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("grid: %s with %d nodes, more than the %d that 32-bit node ids address", op, n, math.MaxInt32)
	}
	return nil
}

// checkNodes panics with nodeCountErr.
func checkNodes(op string, n int) {
	if err := nodeCountErr(op, n); err != nil {
		panic(err.Error())
	}
}

// NumNodes returns the node count.
func (m *Mesh) NumNodes() int { return len(m.X) / m.Dim }

// NumElems returns the element count.
func (m *Mesh) NumElems() int { return len(m.Elems) / m.NPE }

// Coord returns the coordinates of node n (a view into the mesh storage).
func (m *Mesh) Coord(n int) []float64 { return m.X[n*m.Dim : (n+1)*m.Dim] }

// Elem returns the node ids of element e (a view into the mesh storage).
func (m *Mesh) Elem(e int) []int32 { return m.Elems[e*m.NPE : (e+1)*m.NPE] }

// String returns a short summary.
func (m *Mesh) String() string {
	kind := "tri"
	if m.NPE == 4 {
		kind = "tet"
	}
	return fmt.Sprintf("Mesh{%dD %s, %d nodes, %d elems}", m.Dim, kind, m.NumNodes(), m.NumElems())
}

// Check validates structural invariants: coordinate/connectivity lengths
// divisible by Dim/NPE, at most math.MaxInt32 nodes, element node ids in
// range and distinct.
func (m *Mesh) Check() error {
	if m.Dim != 2 && m.Dim != 3 {
		return fmt.Errorf("grid: dimension %d unsupported", m.Dim)
	}
	if m.NPE != m.Dim+1 {
		return fmt.Errorf("grid: %dD mesh must have %d nodes per element, has %d", m.Dim, m.Dim+1, m.NPE)
	}
	if len(m.X)%m.Dim != 0 {
		return fmt.Errorf("grid: coordinate array length %d not divisible by dim %d", len(m.X), m.Dim)
	}
	if len(m.Elems)%m.NPE != 0 {
		return fmt.Errorf("grid: connectivity length %d not divisible by NPE %d", len(m.Elems), m.NPE)
	}
	nn := m.NumNodes()
	if err := nodeCountErr("Check", nn); err != nil {
		return err
	}
	for e := 0; e < m.NumElems(); e++ {
		el := m.Elem(e)
		for i, a := range el {
			if a < 0 || int(a) >= nn {
				return fmt.Errorf("grid: element %d references node %d (of %d)", e, a, nn)
			}
			for _, b := range el[:i] {
				if a == b {
					return fmt.Errorf("grid: element %d has repeated node %d", e, a)
				}
			}
		}
	}
	return nil
}

// NodeGraph returns the node adjacency of the mesh in CSR-like form:
// adj[ptr[i]:ptr[i+1]] lists the distinct neighbors of node i (nodes
// sharing at least one element with i, excluding i itself), sorted. This is
// exactly the sparsity graph of the assembled FEM matrix, which is what the
// partitioner operates on.
func (m *Mesh) NodeGraph() (ptr, adj []int) {
	nn, ne := m.NumNodes(), m.NumElems()
	// Elements incident to each node, in element order.
	ePtr := make([]int, nn+1)
	for _, a := range m.Elems {
		ePtr[a+1]++
	}
	for i := 0; i < nn; i++ {
		ePtr[i+1] += ePtr[i]
	}
	eOf := make([]int, len(m.Elems))
	next := append([]int(nil), ePtr[:nn]...)
	for e := 0; e < ne; e++ {
		for _, a := range m.Elem(e) {
			eOf[next[a]] = e
			next[a]++
		}
	}
	// Per node: list each neighbor the first time an incident element
	// names it (seen[b] == i+1 once b is listed for node i), then sort the
	// distinct list. A triangulation has len(Elems) + (boundary edges)
	// adjacencies and a tetrahedralization fewer per element, so the
	// capacity is rarely outgrown.
	ptr = make([]int, nn+1)
	adj = make([]int, 0, len(m.Elems)+nn)
	seen := make([]int, nn)
	for i := 0; i < nn; i++ {
		seen[i] = i + 1
		for _, e := range eOf[ePtr[i]:ePtr[i+1]] {
			for _, b := range m.Elem(e) {
				if seen[b] != i+1 {
					seen[b] = i + 1
					adj = append(adj, int(b))
				}
			}
		}
		insertionSortInts(adj[ptr[i]:])
		ptr[i+1] = len(adj)
	}
	return ptr, adj
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// BoundaryNodes returns a marker slice: true for every node lying on the
// topological boundary of the mesh (incident to a facet that belongs to
// exactly one element). This works for multiply-connected domains such as
// the plate-with-hole mesh, where geometric predicates would not.
func (m *Mesh) BoundaryNodes() []bool {
	nn, ne := m.NumNodes(), m.NumElems()
	onB := make([]bool, nn)
	// Bucket every facet by its smallest node — count, prefix-sum, fill —
	// keeping its other two node ids.
	ptr := make([]int, nn+1)
	for e := 0; e < ne; e++ {
		s := sortedNodes(m.Elem(e))
		for _, f := range facetOf[:m.NPE] {
			ptr[s[f[0]]+1]++
		}
	}
	for i := 0; i < nn; i++ {
		ptr[i+1] += ptr[i]
	}
	rest := make([][2]int, ptr[nn])
	next := append([]int(nil), ptr[:nn]...)
	for e := 0; e < ne; e++ {
		s := sortedNodes(m.Elem(e))
		for _, f := range facetOf[:m.NPE] {
			i := s[f[0]]
			rest[next[i]] = [2]int{s[f[1]], s[f[2]]}
			next[i]++
		}
	}
	// Equal facets share a bucket and are neighbours once it is sorted (on
	// the whole key, so the sort's order among equals cannot show); a facet
	// without an equal neighbour belongs to one element.
	for i := 0; i < nn; i++ {
		b := rest[ptr[i]:ptr[i+1]]
		slices.SortFunc(b, func(x, y [2]int) int {
			if x[0] != y[0] {
				return cmp.Compare(x[0], y[0])
			}
			return cmp.Compare(x[1], y[1])
		})
		for k, f := range b {
			if (k > 0 && b[k-1] == f) || (k+1 < len(b) && b[k+1] == f) {
				continue
			}
			onB[i], onB[f[0]] = true, true
			if f[1] >= 0 {
				onB[f[1]] = true
			}
		}
	}
	return onB
}

// sortedNodes returns the node ids of a simplex in ascending order; a
// triangle's fourth is -1.
func sortedNodes(el []int32) [4]int {
	a, b, c, d := int(el[0]), int(el[1]), int(el[2]), -1
	a, b = min(a, b), max(a, b)
	b, c = min(b, c), max(b, c)
	a, b = min(a, b), max(a, b)
	if len(el) == 4 {
		d = int(el[3])
		c, d = min(c, d), max(c, d)
		b, c = min(b, c), max(b, c)
		a, b = min(a, b), max(a, b)
	}
	return [4]int{a, b, c, d}
}

// facetOf lists the facets of a simplex as positions in its sortedNodes,
// each ascending: all four for a tetrahedron, for a triangle the first
// three, whose last position holds the -1.
var facetOf = [4][3]int{{0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2}}
