package fem

import (
	"parapre/internal/grid"
	"parapre/internal/sparse"
)

// AssembleScalarRows performs the paper's §1.1 distributed discretization
// for the scalar PDE: it assembles only the matrix rows of the nodes
// selected by owned, visiting exactly the elements incident to them (each
// processor "carries out discretization on its own subdomain"). The
// result is a row slab in global numbering — rows of non-owned nodes stay
// empty — suitable for dsys.DistributeRows. The union of all ranks' slabs
// equals the global assembly, without any rank ever forming it.
func AssembleScalarRows(m *grid.Mesh, pde ScalarPDE, owned func(node int) bool) (*sparse.CSR, []float64) {
	npe := m.NPE
	vel := pde.Velocity
	vnorm := pde.velocityNorm()
	convect := vnorm > 0

	return assemble(m, m.NumNodes(), 0, 0, func(e int, s *sink) {
		el := m.Elem(e)
		anyOwned := false
		for _, node := range el {
			if owned(node) {
				anyOwned = true
				break
			}
		}
		if !anyOwned {
			return
		}
		g := geometry(m, e)

		kDiff := pde.Diffusion
		if pde.DiffusionFn != nil {
			centroid(m, e, s.x)
			kDiff = pde.DiffusionFn(s.x)
		}
		var fc float64
		if pde.Source != nil {
			centroid(m, e, s.x)
			fc = pde.Source(s.x)
		}

		var vg [4]float64
		var tau float64
		if convect {
			for i := 0; i < npe; i++ {
				for d := 0; d < m.Dim; d++ {
					vg[i] += vel[d] * g.grad[i][d]
				}
			}
			if pde.SUPG {
				h := elemScale(m.Dim, g.measure)
				pe := vnorm * h / (2 * kDiff)
				tau = h / (2 * vnorm) * upwindFn(pe)
			}
		}

		w := g.measure / float64(npe)
		for i := 0; i < npe; i++ {
			if !owned(el[i]) {
				continue // this row belongs to another processor
			}
			for j := 0; j < npe; j++ {
				var dot float64
				for d := 0; d < m.Dim; d++ {
					dot += g.grad[i][d] * g.grad[j][d]
				}
				v := kDiff * g.measure * dot
				if convect {
					v += w * vg[j]
					if pde.SUPG {
						v += tau * g.measure * vg[i] * vg[j]
					}
				}
				s.add(el[i], el[j], v)
			}
			if pde.Source != nil {
				s.addRHS(el[i], w*fc)
				if pde.SUPG && convect {
					s.addRHS(el[i], tau*g.measure*vg[i]*fc)
				}
			}
		}
	})
}

// ApplyDirichletRows imposes the boundary conditions on a row slab: it is
// ApplyDirichlet restricted to the owned rows (non-owned rows are empty
// and untouched). bc must be the GLOBAL boundary map — a processor knows
// the boundary values of its external interface neighbors because they
// come from the boundary-condition function, not from other processors.
func ApplyDirichletRows(a *sparse.CSR, b []float64, bc map[int]float64, owned func(node int) bool) {
	if len(bc) == 0 {
		return
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowNNZ(i) == 0 || !owned(i) {
			continue
		}
		cols, vals := a.Row(i)
		if v, isBC := bc[i]; isBC {
			for k, j := range cols {
				if int(j) == i {
					vals[k] = 1
				} else {
					vals[k] = 0
				}
			}
			b[i] = v
			continue
		}
		for k, j := range cols {
			if v, isBC := bc[int(j)]; isBC {
				b[i] -= vals[k] * v
				vals[k] = 0
			}
		}
	}
}

// AssembleElasticityRows is the distributed-discretization variant of
// AssembleElasticity: only the rows of owned degrees of freedom (dof
// d = 2·node+α with owned(d)) are assembled. Partitioning keeps both dofs
// of a node together, so ownership is effectively per node.
func AssembleElasticityRows(m *grid.Mesh, mu, lambda float64,
	f func(x []float64) (fx, fy float64), owned func(dof int) bool) (*sparse.CSR, []float64) {
	if m.Dim != 2 {
		panic("fem: AssembleElasticityRows supports 2D meshes only")
	}
	npe := m.NPE
	gd := mu + lambda

	return assemble(m, 2*m.NumNodes(), 0, 0, func(e int, s *sink) {
		el := m.Elem(e)
		anyOwned := false
		for _, node := range el {
			if owned(2*node) || owned(2*node+1) {
				anyOwned = true
				break
			}
		}
		if !anyOwned {
			return
		}
		g := geometry(m, e)
		var fx, fy float64
		if f != nil {
			centroid(m, e, s.x)
			fx, fy = f(s.x)
		}
		w := g.measure / float64(npe)
		for i := 0; i < npe; i++ {
			for alpha := 0; alpha < 2; alpha++ {
				row := 2*el[i] + alpha
				if !owned(row) {
					continue
				}
				for j := 0; j < npe; j++ {
					var gradDot float64
					for d := 0; d < 2; d++ {
						gradDot += g.grad[i][d] * g.grad[j][d]
					}
					for beta := 0; beta < 2; beta++ {
						v := gd * g.grad[i][alpha] * g.grad[j][beta]
						if alpha == beta {
							v += mu * gradDot
						}
						s.add(row, 2*el[j]+beta, g.measure*v)
					}
				}
				if f != nil {
					if alpha == 0 {
						s.addRHS(row, w*fx)
					} else {
						s.addRHS(row, w*fy)
					}
				}
			}
		}
	})
}
