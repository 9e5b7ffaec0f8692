package grid

import (
	"fmt"
	"math"
)

// PlateWithHole builds the synthetic unstructured triangulation standing in
// for Test Case 3's "special domain" (Fig. 3 of the paper, a 2D domain
// meshed with 521,185 points and 1,040,256 triangles — the authors'
// original mesh is not available).
//
// The substitution: start from an m×m structured triangulation of the unit
// square, carve out every element touching a disc of radius 0.22 centered
// at (0.5, 0.5) — leaving a polygonal hole whose boundary follows the
// lattice — and jitter the remaining interior nodes with a deterministic
// hash-based perturbation. The result is multiply connected with irregular
// element geometry and variable vertex degree — the properties that make
// Test Case 3 behave differently from the uniform-grid cases under a
// general graph partitioner. At m = 723 the node count (~510k) matches the
// paper's order of magnitude.
func PlateWithHole(m int) *Mesh {
	if m < 8 {
		panic(fmt.Sprintf("grid: PlateWithHole needs m >= 8, got %d", m))
	}
	const (
		cx, cy = 0.5, 0.5
		radius = 0.22
	)
	h := 1 / float64(m-1)
	sq := UnitSquareTri(m)

	inside := func(n int32) bool {
		c := sq.Coord(int(n))
		return math.Hypot(c[0]-cx, c[1]-cy) < radius-1e-12
	}

	// Keep elements with no node strictly inside the hole.
	keepElems := make([]int32, 0, len(sq.Elems))
	used := make([]bool, sq.NumNodes())
	for e := 0; e < sq.NumElems(); e++ {
		el := sq.Elem(e)
		if inside(el[0]) || inside(el[1]) || inside(el[2]) {
			continue
		}
		keepElems = append(keepElems, el[0], el[1], el[2])
		used[el[0]] = true
		used[el[1]] = true
		used[el[2]] = true
	}

	// Compact node numbering.
	newID := make([]int32, sq.NumNodes())
	for i := range newID {
		newID[i] = -1
	}
	kept := 0
	for _, u := range used {
		if u {
			kept++
		}
	}
	mesh := &Mesh{Dim: 2, NPE: 3, X: make([]float64, 0, 2*kept)}
	for n := 0; n < sq.NumNodes(); n++ {
		if used[n] {
			newID[n] = int32(len(mesh.X) / 2)
			c := sq.Coord(n)
			mesh.X = append(mesh.X, c[0], c[1])
		}
	}
	mesh.Elems = make([]int32, len(keepElems))
	for k, old := range keepElems {
		mesh.Elems[k] = newID[old]
	}

	// Deterministic jitter of interior nodes, leaving boundary nodes and a
	// two-cell buffer around the rim fixed so the geometry is preserved.
	// The 0.15h amplitude provably cannot collapse a lattice triangle
	// (legs ≥ 0.7h remain non-parallel), so every element keeps positive
	// area. The jitter breaks the tensor-product structure and produces
	// genuinely unstructured element shapes.
	onB := mesh.BoundaryNodes()
	for n := 0; n < mesh.NumNodes(); n++ {
		if onB[n] {
			continue
		}
		c := mesh.Coord(n)
		if math.Abs(math.Hypot(c[0]-cx, c[1]-cy)-radius) < 2*h {
			continue
		}
		jx, jy := hashJitter(n)
		c[0] += 0.15 * h * jx
		c[1] += 0.15 * h * jy
	}
	return mesh
}

// hashJitter returns two deterministic pseudo-random values in [−1, 1)
// derived from the node id with a splitmix64 step, so the mesh is
// reproducible across runs and platforms.
func hashJitter(n int) (x, y float64) {
	z := uint64(n)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	lo := z & 0xffffffff
	hi := z >> 32
	return float64(lo)/float64(1<<31) - 1, float64(hi)/float64(1<<31) - 1
}

func triArea(m *Mesh, el []int32) float64 {
	a, b, c := m.Coord(int(el[0])), m.Coord(int(el[1])), m.Coord(int(el[2]))
	return math.Abs((b[0]-a[0])*(c[1]-a[1])-(c[0]-a[0])*(b[1]-a[1])) / 2
}
