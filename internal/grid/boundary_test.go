package grid_test

import (
	"slices"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/grid"
)

// boundaryNodesRef is BoundaryNodes as it was while it counted facets in
// a map keyed by their sorted node ids. Kept as the oracle.
func boundaryNodesRef(m *grid.Mesh) []bool {
	onB := make([]bool, m.NumNodes())
	count := make(map[[3]int]int)
	record := func(ids ...int32) {
		f := [3]int{-1, -1, -1}
		slices.Sort(ids)
		for k, id := range ids {
			f[k] = int(id)
		}
		count[f]++
	}
	for e := 0; e < m.NumElems(); e++ {
		el := m.Elem(e)
		if m.NPE == 3 {
			record(el[0], el[1])
			record(el[1], el[2])
			record(el[2], el[0])
		} else {
			record(el[0], el[1], el[2])
			record(el[0], el[1], el[3])
			record(el[0], el[2], el[3])
			record(el[1], el[2], el[3])
		}
	}
	for f, c := range count {
		if c == 1 {
			for _, a := range f {
				if a >= 0 {
					onB[a] = true
				}
			}
		}
	}
	return onB
}

// TestBoundaryNodesMatchesReference compares the marker slice with the
// oracle's on the mesh of every test case at two sizes, on the remaining
// mesh generators and on the smallest meshes there are. The fan has a
// facet three elements share, which is on nobody's boundary.
func TestBoundaryNodesMatchesReference(t *testing.T) {
	meshes := map[string]*grid.Mesh{
		"plate-with-hole": grid.PlateWithHole(12),
		"quarter-ring":    grid.QuarterRing(5, 6),
		"one-triangle":    {Dim: 2, NPE: 3, X: make([]float64, 6), Elems: []int32{0, 1, 2}},
		"one-tet":         {Dim: 3, NPE: 4, X: make([]float64, 12), Elems: []int32{3, 1, 0, 2}},
		"isolated-node":   {Dim: 2, NPE: 3, X: make([]float64, 8), Elems: []int32{0, 1, 3}},
		"three-on-an-edge": {Dim: 2, NPE: 3, X: make([]float64, 10),
			Elems: []int32{0, 1, 2, 1, 0, 3, 0, 1, 4}},
		"empty": {Dim: 2, NPE: 3},
	}
	for _, c := range cases.All() {
		meshes[c.Name] = c.Build(c.DefaultSize).Mesh
		meshes[c.Name+"/small"] = c.Build(9).Mesh
	}
	for name, m := range meshes {
		if got, want := m.BoundaryNodes(), boundaryNodesRef(m); !slices.Equal(got, want) {
			t.Errorf("%s (%v): BoundaryNodes differs from the reference", name, m)
		}
	}
}

// BenchmarkBoundaryNodes runs on the largest 3D and 2D meshes a cold cell
// of the repository's benchmark assembles, next to the reference.
func BenchmarkBoundaryNodes(b *testing.B) {
	for name, m := range map[string]*grid.Mesh{
		"tc2-poisson3d@21": cases.Poisson3D(21).Mesh,
		"tc5-convdiff@129": cases.ConvDiff2D(129).Mesh,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.BoundaryNodes()
			}
		})
		b.Run(name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				boundaryNodesRef(m)
			}
		})
	}
}
