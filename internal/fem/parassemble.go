package fem

import (
	"parapre/internal/grid"
	"parapre/internal/par"
	"parapre/internal/paranoid"
	"parapre/internal/sparse"
)

// Parallel assembly. Elements are independent: each one reads only mesh
// geometry and writes only its own stiffness contributions, so the element
// loop splits into contiguous chunks, one per worker, each filling a
// private triplet buffer. Concatenating the chunk buffers in element order
// reconstructs exactly the triplet sequence the serial loop would have
// produced, and right-hand-side contributions are recorded as deferred
// (index, value) pairs and applied in the same order — so the assembled
// matrix and load vector are bit-identical to the serial assembly for
// every worker count and every chunking.

// femParMinElems is the element count below which assembly stays serial;
// smaller meshes finish faster than the fan-out costs.
const femParMinElems = 2048

// sink collects one worker's share of the assembly output: a private COO
// triplet buffer, deferred right-hand-side contributions, and a centroid
// scratch vector for coefficient and source evaluation.
type sink struct {
	coo  *sparse.COO
	rhsI []int
	rhsV []float64
	x    []float64
}

// newSink returns a sink with room for ne elements' output.
func newSink(m *grid.Mesh, dofs, ne, nnzCap, rhsCap int) *sink {
	return &sink{
		coo:  sparse.NewCOO(dofs, dofs, ne*nnzCap),
		rhsI: make([]int, 0, ne*rhsCap),
		rhsV: make([]float64, 0, ne*rhsCap),
		x:    make([]float64, m.Dim),
	}
}

func (s *sink) add(i, j int, v float64) { s.coo.Add(i, j, v) }

func (s *sink) addRHS(i int, v float64) {
	s.rhsI = append(s.rhsI, i)
	s.rhsV = append(s.rhsV, v)
}

// assemble drives kernel over every element of m and returns the dofs×dofs
// system matrix and load vector. nnzCap and rhsCap are the per-element
// counts of triplets and deferred right-hand-side contributions the kernel
// emits — exact, so that no buffer regrows during assembly.
func assemble(m *grid.Mesh, dofs, nnzCap, rhsCap int, kernel func(e int, s *sink)) (*sparse.CSR, []float64) {
	ne := m.NumElems()
	w := par.Workers()
	if w > ne {
		w = ne
	}
	rhs := make([]float64, dofs)
	if w < 2 || ne < femParMinElems {
		s := newSink(m, dofs, ne, nnzCap, rhsCap)
		for e := 0; e < ne; e++ {
			kernel(e, s)
		}
		for k, i := range s.rhsI {
			rhs[i] += s.rhsV[k]
		}
		a := s.coo.ToCSR()
		a.Validate()
		paranoid.CheckFiniteVec("fem: assembled rhs", rhs)
		return a, rhs
	}

	sinks := make([]*sink, w)
	par.Run(w, func(c int) {
		lo, hi := c*ne/w, (c+1)*ne/w
		s := newSink(m, dofs, hi-lo, nnzCap, rhsCap)
		for e := lo; e < hi; e++ {
			kernel(e, s)
		}
		sinks[c] = s
	})

	var total int
	for _, s := range sinks {
		total += s.coo.Len()
	}
	is := make([]int, 0, total)
	js := make([]int, 0, total)
	vs := make([]float64, 0, total)
	for _, s := range sinks {
		is = append(is, s.coo.I...)
		js = append(js, s.coo.J...)
		vs = append(vs, s.coo.V...)
		for k, i := range s.rhsI {
			rhs[i] += s.rhsV[k]
		}
	}
	a := sparse.FromTriplets(dofs, dofs, is, js, vs)
	a.Validate()
	paranoid.CheckFiniteVec("fem: assembled rhs", rhs)
	return a, rhs
}
