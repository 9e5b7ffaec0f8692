package precond

import (
	"fmt"
	"sync"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/fem"
	"parapre/internal/fft"
	"parapre/internal/grid"
	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

// SchwarzOptions configures the additive Schwarz preconditioner of the
// paper's §5.2, defined for the structured unit-square grid of Test
// Case 1.
type SchwarzOptions struct {
	M       int     // global grid has M×M nodes
	Px, Py  int     // processor/subdomain box layout (Px·Py = P)
	Overlap float64 // overlap per side as a fraction of subdomain width (paper: ≈5%)
	CoarseM int     // coarse grid nodes per side (0 disables CGC)
}

// DefaultSchwarz mirrors the paper's setup: ~5% overlap and a small
// coarse grid solved by Gaussian elimination (17×17 at paper scale,
// capped to stay much coarser than the fine grid on scaled-down runs —
// an additive coarse space that nearly duplicates the fine space
// over-corrects instead of helping).
func DefaultSchwarz(m, px, py int, cgc bool) SchwarzOptions {
	o := SchwarzOptions{M: m, Px: px, Py: py, Overlap: 0.05}
	if cgc {
		o.CoarseM = minInt(17, maxInt(3, m/6))
	}
	return o
}

// BoxPartition assigns the nodes of an m×m structured grid to px·py
// rectangular subdomains — the "simple partitioning scheme" the Schwarz
// experiments use. Node (i, j) has global id j·m+i.
func BoxPartition(m, px, py int) []int {
	part := make([]int, m*m)
	for j := 0; j < m; j++ {
		bj := j * py / m
		for i := 0; i < m; i++ {
			bi := i * px / m
			part[j*m+i] = bj*px + bi
		}
	}
	return part
}

// Schwarz is one rank's additive Schwarz preconditioner with overlap:
// z = Σ_i R_iᵀ·Ã_i⁻¹·R_i·r (+ coarse-grid correction), where the
// subdomain solve is one CG iteration accelerated by a DST-based fast
// Poisson solver, as in the paper. Halo values of r are gathered from
// neighboring owners before the solve and overlap corrections are
// scattered back (with accumulation) after it.
type Schwarz struct {
	s   *dsys.System
	opt SchwarzOptions

	// Extended (overlapping) box in grid-index space.
	ei0, ei1, ej0, ej1 int
	boxNodes           []int       // global ids, row-major within the box
	localOf            map[int]int // global id → index in boxNodes
	ownedPos           []int       // boxNodes index of each owned unknown (aligned with GlobalIDs)

	aBox *sparse.CSR // global matrix restricted to the box (zero-Dirichlet exterior)
	pois *fft.PoissonSolver
	// haloR gathers r over the box: owned values go to the peers whose
	// boxes hold them, the peers' values land on our box. haloZ is its
	// transpose, carrying the overlap corrections back to their owners.
	haloR, haloZ dsys.Halo

	coarse *coarseGrid

	// pool recycles the schwarzScratch an Apply works in: each rank
	// leases one for its solve (dist.Comm.Lease) and returns it when the
	// solve ends, so an idle session holds none.
	pool sync.Pool

	dsys.CommErr // first halo failure seen by Apply
}

// schwarzScratch is what one Apply works in: the box vectors, the owned
// correction, the subdomain CG's workspace and, with a coarse grid, the
// restriction and coarse solution.
type schwarzScratch struct {
	rBox, wBox, zOwn []float64
	ws               krylov.Workspace
	rc, zc           []float64
}

type coarseGrid struct {
	m      int
	lu     *sparse.LU
	isBdry []bool
	// interp rows for this rank's owned fine nodes: up to 4 coarse nodes
	// with bilinear weights.
	idx [][4]int
	wgt [][4]float64
}

const (
	tagHaloR = 300
	tagHaloZ = 301
)

// NewSchwarz builds the Schwarz preconditioner for rank s.Rank. The
// distributed system must have been built with BoxPartition(M, Px, Py)
// and the global matrix a must be the Test-Case-1-style assembly on
// grid.UnitSquareTri(M). Setup happens before dist.Run (different ranks'
// setups are independent and may run concurrently) but Apply is
// collective.
func NewSchwarz(s *dsys.System, a *sparse.CSR, opt SchwarzOptions) (*Schwarz, error) {
	m := opt.M
	if m*m != a.Rows {
		return nil, fmt.Errorf("precond: Schwarz grid %d² != matrix dim %d", m, a.Rows)
	}
	if opt.Px*opt.Py != s.P {
		return nil, fmt.Errorf("precond: Schwarz box layout %d×%d != world size %d", opt.Px, opt.Py, s.P)
	}
	p := &Schwarz{s: s, opt: opt}

	// Owned box of this rank in index space (from BoxPartition geometry).
	r := s.Rank
	bi, bj := r%opt.Px, r/opt.Px
	i0 := ceilDiv(bi*m, opt.Px)
	i1 := ceilDiv((bi+1)*m, opt.Px)
	j0 := ceilDiv(bj*m, opt.Py)
	j1 := ceilDiv((bj+1)*m, opt.Py)
	ovx := int(opt.Overlap*float64(i1-i0)) + 1
	ovy := int(opt.Overlap*float64(j1-j0)) + 1
	p.ei0, p.ei1 = maxInt(0, i0-ovx), minInt(m, i1+ovx)
	p.ej0, p.ej1 = maxInt(0, j0-ovy), minInt(m, j1+ovy)

	// Box node list, row-major.
	for j := p.ej0; j < p.ej1; j++ {
		for i := p.ei0; i < p.ei1; i++ {
			p.boxNodes = append(p.boxNodes, j*m+i)
		}
	}
	p.localOf = make(map[int]int, len(p.boxNodes))
	for k, g := range p.boxNodes {
		p.localOf[g] = k
	}
	p.ownedPos = make([]int, s.NLoc())
	for l, g := range s.GlobalIDs {
		k, ok := p.localOf[g]
		if !ok {
			return nil, fmt.Errorf("precond: Schwarz rank %d: owned node %d outside its own box (partition mismatch)", r, g)
		}
		p.ownedPos[l] = k
	}

	// Restricted matrix with homogeneous Dirichlet exterior, its
	// blocked-format verdict taken before the first product.
	p.aBox = sparse.Extract(a, p.boxNodes, p.boxNodes)
	p.aBox.AutoBlocked()

	// Fast Poisson solver on the box interior (all box nodes treated as
	// interior with unit spacing: the P1 stiffness on this mesh is the
	// unscaled 5-point stencil).
	nx, ny := p.ei1-p.ei0, p.ej1-p.ej0
	p.pois = fft.NewPoissonSolver(nx, ny, 1, 1)

	if opt.CoarseM >= 3 {
		cg, err := buildCoarse(s, m, opt.CoarseM)
		if err != nil {
			return nil, err
		}
		p.coarse = cg
	}
	p.pool.New = func() any { return p.newScratch() }
	return p, nil
}

func (p *Schwarz) newScratch() *schwarzScratch {
	sc := &schwarzScratch{
		rBox: make([]float64, len(p.boxNodes)),
		wBox: make([]float64, len(p.boxNodes)),
		zOwn: make([]float64, p.s.NLoc()),
	}
	if p.coarse != nil {
		nC := p.coarse.m * p.coarse.m
		sc.rc, sc.zc = make([]float64, nC), make([]float64, nC)
	}
	return sc
}

// WireHalo builds the pairwise exchange lists between all ranks'
// Schwarz preconditioners. Call once, sequentially, with every rank's
// instance.
func WireHalo(all []*Schwarz) error {
	// owner[g] = rank owning global node g.
	n := all[0].opt.M * all[0].opt.M
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for r, sw := range all {
		sw.haloR.Tag, sw.haloZ.Tag = tagHaloR, tagHaloZ
		for _, g := range sw.s.GlobalIDs {
			owner[g] = r
		}
	}
	for r, sw := range all {
		needs := map[int][]int{} // peer rank → box-local indices
		for k, g := range sw.boxNodes {
			if o := owner[g]; o != r {
				if o < 0 {
					return fmt.Errorf("precond: node %d unowned", g)
				}
				needs[o] = append(needs[o], k)
			}
		}
		for q, boxIdx := range needs {
			// Peer-side owned-local indices for these globals.
			peer := all[q]
			ownLocal := make(map[int]int, peer.s.NLoc())
			for l, g := range peer.s.GlobalIDs {
				ownLocal[g] = l
			}
			send := make([]int, len(boxIdx))
			for t, k := range boxIdx {
				l, ok := ownLocal[sw.boxNodes[k]]
				if !ok {
					return fmt.Errorf("precond: halo wiring: rank %d does not own node %d", q, sw.boxNodes[k])
				}
				send[t] = l
			}
			// q sends these owned values to r's box and later accumulates
			// r's corrections to them.
			peer.haloR.Link(r).Send = send
			sw.haloR.Link(q).Recv = boxIdx
			sw.haloZ.Link(q).Send = boxIdx
			peer.haloZ.Link(r).Recv = send
		}
	}
	for _, sw := range all {
		sw.haloR.Seal()
		sw.haloZ.Seal()
	}
	return nil
}

func buildCoarse(s *dsys.System, m, cm int) (*coarseGrid, error) {
	g := grid.UnitSquareTri(cm)
	ac, _ := fem.AssembleScalar(g, fem.ScalarPDE{Diffusion: 1})
	onB := g.BoundaryNodes()
	bc := map[int]float64{}
	for n := 0; n < g.NumNodes(); n++ {
		if onB[n] {
			bc[n] = 0
		}
	}
	rhs := make([]float64, g.NumNodes())
	fem.ApplyDirichlet(ac, rhs, bc)
	lu, err := ac.Dense().Factor()
	if err != nil {
		return nil, fmt.Errorf("precond: coarse factor: %w", err)
	}
	cg := &coarseGrid{m: cm, lu: lu, isBdry: onB}
	// Bilinear interpolation weights for each owned fine node.
	h := 1 / float64(m-1)
	hc := 1 / float64(cm-1)
	cg.idx = make([][4]int, s.NLoc())
	cg.wgt = make([][4]float64, s.NLoc())
	for l, gid := range s.GlobalIDs {
		fi, fj := gid%m, gid/m
		x, y := float64(fi)*h, float64(fj)*h
		ci := minInt(int(x/hc), cm-2)
		cj := minInt(int(y/hc), cm-2)
		tx := x/hc - float64(ci)
		ty := y/hc - float64(cj)
		cg.idx[l] = [4]int{cj*cm + ci, cj*cm + ci + 1, (cj+1)*cm + ci, (cj+1)*cm + ci + 1}
		cg.wgt[l] = [4]float64{(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty}
	}
	return cg, nil
}

// Apply computes the additive Schwarz correction. Must be called
// collectively by all ranks (after WireHalo).
func (p *Schwarz) Apply(c *dist.Comm, z, r []float64) {
	p.apply(c, c.Lease(&p.pool).(*schwarzScratch), z, r)
}

func (p *Schwarz) apply(c *dist.Comm, sc *schwarzScratch, z, r []float64) {
	s := p.s

	// 1. Gather r over the extended box: own values plus halo.
	for i := range sc.rBox {
		sc.rBox[i] = 0
	}
	for l, k := range p.ownedPos {
		sc.rBox[k] = r[l]
	}
	err := p.haloR.Exchange(c, sc.rBox, r, false)

	// 2. One CG iteration on Ã_i·w = r_box, preconditioned by the DST
	// fast Poisson solver (the paper's "special FFT-based
	// preconditioner").
	for i := range sc.wBox {
		sc.wBox[i] = 0
	}
	krylov.CG(len(sc.wBox),
		func(y, x []float64) {
			p.aBox.MulVecTo(y, x)
			c.Compute(2 * float64(p.aBox.NNZ()))
		},
		func(zz, rr []float64) {
			p.pois.SolveTo(zz, rr)
			nf := float64(len(zz))
			c.Compute(20 * nf) // ≈ 2·N·log N for the DST pair at these sizes
		},
		krylov.Seq, sc.rBox, sc.wBox,
		krylov.Options{ZeroGuess: true, MaxIters: 1, Tol: 0, Compute: c.Compute, Work: &sc.ws})

	// 3. Scatter-add corrections: own part directly, overlap parts back
	// to their owners.
	for l, k := range p.ownedPos {
		sc.zOwn[l] = sc.wBox[k]
	}
	if errZ := p.haloZ.Exchange(c, sc.zOwn, sc.wBox, true); err == nil {
		err = errZ
	}

	// 4. Coarse-grid correction (additive).
	if p.coarse != nil {
		cg := p.coarse
		nC := cg.m * cg.m
		rc := sc.rc
		for i := range rc {
			rc[i] = 0
		}
		for l := range p.ownedPos {
			for t := 0; t < 4; t++ {
				rc[cg.idx[l][t]] += cg.wgt[l][t] * r[l]
			}
		}
		c.Compute(8 * float64(s.NLoc()))
		rc = c.AllReduceSumVec(rc)
		for i, b := range cg.isBdry {
			if b {
				rc[i] = 0
			}
		}
		zc := sc.zc
		cg.lu.SolveTo(zc, rc)
		c.Compute(2 * float64(nC) * float64(nC))
		for l := range p.ownedPos {
			var v float64
			for t := 0; t < 4; t++ {
				v += cg.wgt[l][t] * zc[cg.idx[l][t]]
			}
			sc.zOwn[l] += v
		}
		c.Compute(8 * float64(s.NLoc()))
	}

	copy(z, sc.zOwn)
	if err != nil {
		p.Record(err)
		poisonNaN(z)
	}
}

// Name identifies the preconditioner variant.
func (p *Schwarz) Name() string {
	if p.coarse != nil {
		return "AddSchwarz+CGC"
	}
	return "AddSchwarz"
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SetupFlops estimates the construction cost: box extraction plus (when
// enabled) the replicated dense coarse-grid factorization.
func (p *Schwarz) SetupFlops() float64 {
	f := 2 * float64(p.aBox.NNZ())
	if p.coarse != nil {
		n := float64(p.coarse.m * p.coarse.m)
		f += n * n * n / 3
	}
	return f
}
