package grid_test

import (
	"slices"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/grid"
)

// nodeGraphRef is NodeGraph as it was before it learned to deduplicate
// first: one entry per (element, other node), every node's list sorted
// with its duplicates, then compacted. Kept as the oracle.
func nodeGraphRef(m *grid.Mesh) (ptr, adj []int) {
	nn := m.NumNodes()
	deg := make([]int, nn)
	for e := 0; e < m.NumElems(); e++ {
		for _, a := range m.Elem(e) {
			deg[a] += m.NPE - 1
		}
	}
	ptr = make([]int, nn+1)
	for i := 0; i < nn; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj = make([]int, ptr[nn])
	next := append([]int(nil), ptr[:nn]...)
	for e := 0; e < m.NumElems(); e++ {
		el := m.Elem(e)
		for _, a := range el {
			for _, b := range el {
				if a != b {
					adj[next[a]] = int(b)
					next[a]++
				}
			}
		}
	}
	out := adj[:0]
	w := 0
	for i := 0; i < nn; i++ {
		seg := adj[ptr[i]:ptr[i+1]]
		slices.Sort(seg)
		start := w
		prev := -1
		for _, v := range seg {
			if v != prev {
				out = append(out, v)
				w++
				prev = v
			}
		}
		ptr[i] = start
	}
	ptr[nn] = w
	return ptr, out
}

// TestNodeGraphMatchesReference compares the graph with the oracle's on
// the mesh of every test case, at two sizes, and on the remaining mesh
// generators.
func TestNodeGraphMatchesReference(t *testing.T) {
	meshes := map[string]*grid.Mesh{
		"quarter-ring":  grid.QuarterRing(5, 6),
		"one-triangle":  {Dim: 2, NPE: 3, X: make([]float64, 6), Elems: []int32{0, 1, 2}},
		"isolated-node": {Dim: 2, NPE: 3, X: make([]float64, 8), Elems: []int32{0, 1, 3}},
		"empty":         {Dim: 2, NPE: 3},
	}
	for _, c := range cases.All() {
		meshes[c.Name] = c.Build(c.DefaultSize).Mesh
		meshes[c.Name+"/small"] = c.Build(9).Mesh
	}
	for name, m := range meshes {
		ptr, adj := m.NodeGraph()
		wantPtr, wantAdj := nodeGraphRef(m)
		if !slices.Equal(ptr, wantPtr) || !slices.Equal(adj, wantAdj) {
			t.Errorf("%s (%v): NodeGraph differs from the reference", name, m)
		}
	}
}

// BenchmarkNodeGraph runs on the two meshes core.Partition hands it most
// often in the repository's benchmark, next to the reference.
func BenchmarkNodeGraph(b *testing.B) {
	for name, m := range map[string]*grid.Mesh{
		"tc1-poisson2d@129": cases.Poisson2D(129).Mesh,
		"tc2-poisson3d@21":  cases.Poisson3D(21).Mesh,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.NodeGraph()
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nodeGraphRef(m)
			}
		})
	}
}
