package grid

import (
	"testing"
)

// newFacet2 and newFacet3 are a facet's key in countFacets: its sorted node
// ids, the third -1 in 2D.
func newFacet2(a, b int) [3]int {
	if a > b {
		a, b = b, a
	}
	return [3]int{a, b, -1}
}

func newFacet3(a, b, c int) [3]int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int{a, b, c}
}

// countFacets tallies how many elements share each facet; a conforming
// mesh has every facet in exactly one or two elements.
func countFacets(m *Mesh) map[[3]int]int {
	count := map[[3]int]int{}
	for e := 0; e < m.NumElems(); e++ {
		el := m.Elem(e)
		if m.NPE == 3 {
			count[newFacet2(int(el[0]), int(el[1]))]++
			count[newFacet2(int(el[1]), int(el[2]))]++
			count[newFacet2(int(el[2]), int(el[0]))]++
		} else {
			count[newFacet3(int(el[0]), int(el[1]), int(el[2]))]++
			count[newFacet3(int(el[0]), int(el[1]), int(el[3]))]++
			count[newFacet3(int(el[0]), int(el[2]), int(el[3]))]++
			count[newFacet3(int(el[1]), int(el[2]), int(el[3]))]++
		}
	}
	return count
}

func TestAllMeshesConforming(t *testing.T) {
	meshes := map[string]*Mesh{
		"square":   UnitSquareTri(9),
		"cube":     UnitCubeTet(4),
		"ring":     QuarterRing(5, 7),
		"plate":    PlateWithHole(16),
		"bigPlate": PlateWithHole(24),
	}
	for name, m := range meshes {
		for f, c := range countFacets(m) {
			if c < 1 || c > 2 {
				t.Fatalf("%s: facet %v shared by %d elements — non-conforming mesh", name, f, c)
			}
		}
	}
}

func TestEulerCharacteristic2D(t *testing.T) {
	// For a 2D simply connected triangulated disc: V − E + F = 1 (not
	// counting the outer face). The plate-with-hole has genus-like
	// characteristic 0 (one hole).
	euler := func(m *Mesh) int {
		edges := map[[3]int]bool{}
		for e := 0; e < m.NumElems(); e++ {
			el := m.Elem(e)
			edges[newFacet2(int(el[0]), int(el[1]))] = true
			edges[newFacet2(int(el[1]), int(el[2]))] = true
			edges[newFacet2(int(el[2]), int(el[0]))] = true
		}
		return m.NumNodes() - len(edges) + m.NumElems()
	}
	if got := euler(UnitSquareTri(8)); got != 1 {
		t.Fatalf("square euler = %d, want 1", got)
	}
	if got := euler(QuarterRing(6, 5)); got != 1 {
		t.Fatalf("ring euler = %d, want 1", got)
	}
	if got := euler(PlateWithHole(20)); got != 0 {
		t.Fatalf("plate-with-hole euler = %d, want 0 (one hole)", got)
	}
}

func TestNodeGraphDegreeBounds(t *testing.T) {
	// Structured triangulation: interior vertices have degree ≤ 8 wait —
	// with the diagonal split used here, interior degree is 6; corners 2
	// or 3. Kuhn tets: interior degree ≤ 14.
	ptr, _ := UnitSquareTri(9).NodeGraph()
	for i := 0; i+1 < len(ptr); i++ {
		deg := ptr[i+1] - ptr[i]
		if deg < 2 || deg > 6 {
			t.Fatalf("square graph degree %d at %d out of [2,6]", deg, i)
		}
	}
	ptr, _ = UnitCubeTet(4).NodeGraph()
	for i := 0; i+1 < len(ptr); i++ {
		deg := ptr[i+1] - ptr[i]
		if deg < 3 || deg > 14 {
			t.Fatalf("cube graph degree %d at %d out of [3,14]", deg, i)
		}
	}
}

func TestNodeGraphEdgeCountMatchesEdges(t *testing.T) {
	// In 2D the node graph is exactly the edge graph of the mesh.
	m := PlateWithHole(18)
	ptr, _ := m.NodeGraph()
	graphEdges := ptr[len(ptr)-1] / 2
	meshEdges := 0
	for _, c := range countFacets(m) {
		_ = c
		meshEdges++
	}
	if graphEdges != meshEdges {
		t.Fatalf("graph has %d edges, mesh has %d", graphEdges, meshEdges)
	}
}

func TestBoundaryNodesCount2D(t *testing.T) {
	// Boundary facets each contribute their nodes; for the square the
	// boundary is a cycle: #boundary nodes == #boundary edges.
	m := UnitSquareTri(12)
	bEdges := 0
	for _, c := range countFacets(m) {
		if c == 1 {
			bEdges++
		}
	}
	onB := m.BoundaryNodes()
	bNodes := 0
	for _, b := range onB {
		if b {
			bNodes++
		}
	}
	if bNodes != bEdges {
		t.Fatalf("boundary nodes %d != boundary edges %d (boundary is a single cycle)", bNodes, bEdges)
	}
}
