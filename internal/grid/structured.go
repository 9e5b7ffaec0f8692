package grid

import (
	"fmt"
	"math"
)

// UnitSquareTri triangulates the unit square with m×m nodes (m ≥ 2) on a
// uniform lattice; every lattice cell is split into two triangles. This is
// the grid of Test Cases 1 and 5 (the paper uses m = 1001, i.e. 1,002,001
// points).
func UnitSquareTri(m int) *Mesh {
	if m < 2 {
		panic(fmt.Sprintf("grid: UnitSquareTri needs m >= 2, got %d", m))
	}
	checkNodes("UnitSquareTri", m*m)
	h := 1 / float64(m-1)
	mesh := &Mesh{
		Dim:   2,
		NPE:   3,
		X:     make([]float64, 0, 2*m*m),
		Elems: make([]int32, 0, 6*(m-1)*(m-1)),
	}
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			mesh.X = append(mesh.X, float64(i)*h, float64(j)*h)
		}
	}
	id := func(i, j int) int32 { return int32(j*m + i) }
	for j := 0; j < m-1; j++ {
		for i := 0; i < m-1; i++ {
			a, b, c, d := id(i, j), id(i+1, j), id(i+1, j+1), id(i, j+1)
			mesh.Elems = append(mesh.Elems, a, b, c, a, c, d)
		}
	}
	return mesh
}

// kuhnTets lists the six tetrahedra of the Kuhn subdivision of the unit
// cube, as corner indices into the standard corner numbering
// (i + 2j + 4k for corner offsets (i,j,k) ∈ {0,1}³). Every tetrahedron
// contains the main diagonal 0–7, which makes the subdivision conforming
// across neighboring cells.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7},
	{0, 1, 5, 7},
	{0, 2, 3, 7},
	{0, 2, 6, 7},
	{0, 4, 5, 7},
	{0, 4, 6, 7},
}

// UnitCubeTet tetrahedralizes the unit cube with m×m×m nodes, six
// tetrahedra per lattice cell (Kuhn subdivision). This is the grid of Test
// Cases 2 and 4 (the paper uses m = 101, i.e. 1,030,301 points).
func UnitCubeTet(m int) *Mesh {
	if m < 2 {
		panic(fmt.Sprintf("grid: UnitCubeTet needs m >= 2, got %d", m))
	}
	checkNodes("UnitCubeTet", m*m*m)
	h := 1 / float64(m-1)
	mesh := &Mesh{
		Dim:   3,
		NPE:   4,
		X:     make([]float64, 0, 3*m*m*m),
		Elems: make([]int32, 0, 24*(m-1)*(m-1)*(m-1)),
	}
	for k := 0; k < m; k++ {
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				mesh.X = append(mesh.X, float64(i)*h, float64(j)*h, float64(k)*h)
			}
		}
	}
	id := func(i, j, k int) int32 { return int32((k*m+j)*m + i) }
	var corners [8]int32
	for k := 0; k < m-1; k++ {
		for j := 0; j < m-1; j++ {
			for i := 0; i < m-1; i++ {
				for c := 0; c < 8; c++ {
					corners[c] = id(i+c&1, j+(c>>1)&1, k+(c>>2)&1)
				}
				for _, t := range kuhnTets {
					mesh.Elems = append(mesh.Elems,
						corners[t[0]], corners[t[1]], corners[t[2]], corners[t[3]])
				}
			}
		}
	}
	return mesh
}

// QuarterRing builds a curvilinear structured triangulation of the quarter
// annulus {1 ≤ r ≤ 2, 0 ≤ θ ≤ π/2}, with mr nodes radially and mt nodes
// angularly. This is the grid of Test Case 6 (two displacement unknowns
// per node are added later by the elasticity discretization).
func QuarterRing(mr, mt int) *Mesh {
	if mr < 2 || mt < 2 {
		panic(fmt.Sprintf("grid: QuarterRing needs mr, mt >= 2, got %d, %d", mr, mt))
	}
	checkNodes("QuarterRing", mr*mt)
	mesh := &Mesh{
		Dim:   2,
		NPE:   3,
		X:     make([]float64, 0, 2*mr*mt),
		Elems: make([]int32, 0, 6*(mr-1)*(mt-1)),
	}
	for j := 0; j < mt; j++ {
		theta := math.Pi / 2 * float64(j) / float64(mt-1)
		for i := 0; i < mr; i++ {
			r := 1 + float64(i)/float64(mr-1)
			mesh.X = append(mesh.X, r*math.Cos(theta), r*math.Sin(theta))
		}
	}
	id := func(i, j int) int32 { return int32(j*mr + i) }
	for j := 0; j < mt-1; j++ {
		for i := 0; i < mr-1; i++ {
			a, b, c, d := id(i, j), id(i+1, j), id(i+1, j+1), id(i, j+1)
			mesh.Elems = append(mesh.Elems, a, b, c, a, c, d)
		}
	}
	return mesh
}
