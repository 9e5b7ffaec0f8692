// Package fem discretizes the paper's four PDEs (§3) with linear finite
// elements: P1 triangles in 2D and P1 tetrahedra in 3D. It provides
// stiffness, mass, convection (with SUPG upwinding, cf. the paper's §3.3
// "upwind weighting functions"), and linear-elasticity assembly, plus
// symmetric Dirichlet boundary-condition application.
package fem

import (
	"math"

	"parapre/internal/grid"
)

// elemGeom holds the P1 geometry of one element: the (unsigned) measure
// and the constant basis-function gradients.
type elemGeom struct {
	measure float64       // area (2D) or volume (3D)
	grad    [4][3]float64 // grad[i][d] = ∂φ_i/∂x_d; only NPE×Dim entries used
}

// geometry computes the P1 element geometry of element e. Works for both
// orientations (the signed determinant cancels in every bilinear form
// assembled here).
func geometry(m *grid.Mesh, e int) elemGeom {
	el := m.Elem(e)
	var g elemGeom
	if m.Dim == 2 {
		a, b, c := m.Coord(int(el[0])), m.Coord(int(el[1])), m.Coord(int(el[2]))
		det := (b[0]-a[0])*(c[1]-a[1]) - (c[0]-a[0])*(b[1]-a[1]) // 2·signed area
		g.measure = math.Abs(det) / 2
		inv := 1 / det
		// ∇φ_0 = (y_b − y_c, x_c − x_b)/det, cyclic.
		g.grad[0][0] = (b[1] - c[1]) * inv
		g.grad[0][1] = (c[0] - b[0]) * inv
		g.grad[1][0] = (c[1] - a[1]) * inv
		g.grad[1][1] = (a[0] - c[0]) * inv
		g.grad[2][0] = (a[1] - b[1]) * inv
		g.grad[2][1] = (b[0] - a[0]) * inv
		return g
	}
	a, b, c, d := m.Coord(int(el[0])), m.Coord(int(el[1])), m.Coord(int(el[2])), m.Coord(int(el[3]))
	var J [3][3]float64 // edge vectors from a
	for k := 0; k < 3; k++ {
		J[0][k] = b[k] - a[k]
		J[1][k] = c[k] - a[k]
		J[2][k] = d[k] - a[k]
	}
	det := J[0][0]*(J[1][1]*J[2][2]-J[1][2]*J[2][1]) -
		J[0][1]*(J[1][0]*J[2][2]-J[1][2]*J[2][0]) +
		J[0][2]*(J[1][0]*J[2][1]-J[1][1]*J[2][0])
	g.measure = math.Abs(det) / 6
	inv := 1 / det
	// Rows of the inverse-transpose of J give ∇φ_1..3; ∇φ_0 = −Σ others.
	g.grad[1][0] = (J[1][1]*J[2][2] - J[1][2]*J[2][1]) * inv
	g.grad[1][1] = (J[1][2]*J[2][0] - J[1][0]*J[2][2]) * inv
	g.grad[1][2] = (J[1][0]*J[2][1] - J[1][1]*J[2][0]) * inv
	g.grad[2][0] = (J[0][2]*J[2][1] - J[0][1]*J[2][2]) * inv
	g.grad[2][1] = (J[0][0]*J[2][2] - J[0][2]*J[2][0]) * inv
	g.grad[2][2] = (J[0][1]*J[2][0] - J[0][0]*J[2][1]) * inv
	g.grad[3][0] = (J[0][1]*J[1][2] - J[0][2]*J[1][1]) * inv
	g.grad[3][1] = (J[0][2]*J[1][0] - J[0][0]*J[1][2]) * inv
	g.grad[3][2] = (J[0][0]*J[1][1] - J[0][1]*J[1][0]) * inv
	for d := 0; d < 3; d++ {
		g.grad[0][d] = -(g.grad[1][d] + g.grad[2][d] + g.grad[3][d])
	}
	return g
}

// centroid returns the element centroid into out.
func centroid(m *grid.Mesh, e int, out []float64) {
	el := m.Elem(e)
	for d := 0; d < m.Dim; d++ {
		out[d] = 0
	}
	for _, n := range el {
		c := m.Coord(int(n))
		for d := 0; d < m.Dim; d++ {
			out[d] += c[d]
		}
	}
	for d := 0; d < m.Dim; d++ {
		out[d] /= float64(m.NPE)
	}
}
