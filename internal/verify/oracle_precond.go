package verify

import (
	"fmt"

	"parapre/internal/cases"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/fft"
	"parapre/internal/ilu"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// checkFFTPoisson verifies the DST-based fast Poisson solver against a
// dense 5-point Laplacian: forward operator and solve, on square and
// rectangular grids with unequal spacings, down to a 1×1 grid.
func checkFFTPoisson(cfg Config) []Violation {
	var out []Violation
	type gridCase struct {
		nx, ny int
		hx, hy float64
	}
	gcs := []gridCase{{1, 1, 1, 1}, {3, 2, 1, 1}, {5, 5, 0.5, 0.25}, {8, 3, 1, 0.125}}
	if !cfg.Quick {
		gcs = append(gcs, gridCase{13, 9, 0.2, 0.7}, gridCase{1, 6, 1, 1})
	}
	for _, gc := range gcs {
		n := gc.nx * gc.ny
		lap := denseLaplacian5pt(gc.nx, gc.ny, gc.hx, gc.hy)
		p := fft.NewPoissonSolver(gc.nx, gc.ny, gc.hx, gc.hy)
		tag := fmt.Sprintf("nx=%d ny=%d hx=%g hy=%g", gc.nx, gc.ny, gc.hx, gc.hy)

		f := randomRHS(n, cfg.Seed+int64(101*gc.nx+gc.ny))
		// Forward operator vs dense multiply.
		u := randomRHS(n, cfg.Seed+int64(307*gc.nx+gc.ny))
		av := p.Apply(u)
		ref := make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += lap.At(i, j) * u[j]
			}
			ref[i] = s
		}
		if d := maxAbsDiff(av, ref); d > 1e-9*(1+maxAbs(ref)) {
			out = append(out, Violation{"fft-poisson",
				fmt.Sprintf("Apply differs from dense 5-point operator by %g", d), tag})
		}
		// Solve vs dense LU solve.
		lu, err := lap.Factor()
		if err != nil {
			out = append(out, Violation{"fft-poisson", fmt.Sprintf("dense factor: %v", err), tag})
			continue
		}
		ud := lu.Solve(f)
		us := p.Solve(f)
		if d := maxAbsDiff(us, ud); d > 1e-9*(1+maxAbs(ud)) {
			out = append(out, Violation{"fft-poisson",
				fmt.Sprintf("DST solve differs from dense solve by %g", d), tag})
		}
	}
	return out
}

// denseLaplacian5pt assembles the 5-point −Δ_h operator on an nx×ny
// interior grid with homogeneous Dirichlet boundaries, row-major.
func denseLaplacian5pt(nx, ny int, hx, hy float64) *sparse.Dense {
	n := nx * ny
	d := sparse.NewDense(n, n)
	cx, cy := 1/(hx*hx), 1/(hy*hy)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			row := j*nx + i
			d.Set(row, row, 2*cx+2*cy)
			if i > 0 {
				d.Set(row, row-1, -cx)
			}
			if i < nx-1 {
				d.Set(row, row+1, -cx)
			}
			if j > 0 {
				d.Set(row, row-nx, -cy)
			}
			if j < ny-1 {
				d.Set(row, row+nx, -cy)
			}
		}
	}
	return d
}

// checkPrecondBlock verifies the block-Jacobi preconditioners against
// their definition z_i = Ã_i⁻¹·r_i: with complete factors the application
// must equal the dense solve of the owned block, and with incomplete
// factors the application must exactly invert the stored factor product.
func checkPrecondBlock(cfg Config) []Violation {
	var out []Violation
	sizes := []int{6, 12}
	if !cfg.Quick {
		sizes = append(sizes, 21)
	}
	for _, n := range sizes {
		for _, p := range []int{2, 3} {
			seed := cfg.Seed + 1300*int64(n) + int64(p)
			tag := func(extra string) string { return repro(n, seed, fmt.Sprintf("P=%d %s", p, extra)) }
			a := randomSPD(n, 0.5, seed)
			part := randomPartition(n, p, seed)
			b := make([]float64, n)
			systems := dsys.Distribute(a, b, part, p)

			for r, s := range systems {
				nl := s.NLoc()
				if nl == 0 {
					continue
				}
				owned := s.OwnedBlock()
				lu, err := owned.Dense().Factor()
				if err != nil {
					out = append(out, Violation{"precond-block", fmt.Sprintf("rank %d dense factor: %v", r, err), tag("")})
					continue
				}
				rhs := randomRHS(nl, seed+int64(r))
				zd := lu.Solve(rhs)

				// Complete-factor variants must equal the dense solve;
				// incomplete ones must exactly invert their own factor
				// product (the block-Jacobi Ã_i).
				lu0, _ := ilu.ILU0(owned)
				ic0, _ := ilu.IC0(owned)
				b2, err2 := precond.NewBlock2(s, completeOpts)
				b1, err1 := precond.NewBlock1(s)
				bic, errIC := precond.NewBlockIC(s)
				for _, v := range []struct {
					name, product string
					pc            *precond.Block
					err           error
					back          func(z []float64) []float64 // the product applied; nil for a complete factor
				}{
					{"Block 2", "", b2, err2, nil},
					{"Block 1", "L·U", b1, err1, func(z []float64) []float64 { return lu0.Product().MulVec(z) }},
					{"Block IC", "L·Lᵀ", bic, errIC, func(z []float64) []float64 { return cholProductMulVec(ic0, z) }},
				} {
					if v.err != nil {
						out = append(out, Violation{"precond-block", fmt.Sprintf("rank %d %s: %v", r, v.name, v.err), tag("")})
						continue
					}
					z := make([]float64, nl)
					dist.Run(1, dist.LinuxCluster(), func(c *dist.Comm) { v.pc.Apply(c, z, rhs) })
					if v.back == nil {
						if d := maxAbsDiff(z, zd); d > 1e-8*(1+maxAbs(zd)) {
							out = append(out, Violation{"precond-block",
								fmt.Sprintf("rank %d complete %s differs from dense owned-block solve by %g", r, v.name, d), tag("")})
						}
					} else if d := maxAbsDiff(v.back(z), rhs); d > 1e-8*(1+maxAbs(z)) {
						out = append(out, Violation{"precond-block",
							fmt.Sprintf("rank %d %s: (%s)·Apply(r) differs from r by %g", r, v.name, v.product, d), tag("")})
					}
				}
			}
		}
	}
	return out
}

// cholProductMulVec computes (L·Lᵀ)·z from the stored IC factors.
func cholProductMulVec(ch *ilu.Chol, z []float64) []float64 {
	t := ch.Lt.MulVec(z)
	return ch.L.MulVec(t)
}

// exactSchur1Opts configures Schur 1 as an exact solver: complete
// subdomain factors, exact B-solves (one sweep of the complete factor),
// and a fully converged inner Schur GMRES.
func exactSchur1Opts(n int) precond.Schur1Options {
	return precond.Schur1Options{
		ILUT:       completeOpts,
		SchurIters: 2*n + 10,
		SchurTol:   1e-13,
		InnerIters: 0,
	}
}

// checkPrecondSchur1 verifies the Schur 1 preconditioner against its
// definition: with exact settings Algorithm 2.1 is an exact block-LU
// solve of the global system, so Apply must reproduce the dense global
// solve.
func checkPrecondSchur1(cfg Config) []Violation {
	return checkPrecondGlobalInverse(cfg, "precond-schur1", 1400,
		func(s *dsys.System, n int) (distApplier, error) {
			return precond.NewSchur1(s, exactSchur1Opts(n))
		})
}

// checkPrecondSchur2 verifies the Schur 2 (expanded Schur) preconditioner
// the same way: with dropping disabled and the expanded-system GMRES run
// to convergence, the two-level reduction is an exact solve.
func checkPrecondSchur2(cfg Config) []Violation {
	return checkPrecondGlobalInverse(cfg, "precond-schur2", 1500,
		func(s *dsys.System, n int) (distApplier, error) {
			return precond.NewSchur2(s, precond.Schur2Options{
				MaxGroup:   6,
				DropTol:    0,
				SchurIters: 3*n + 10,
				SchurTol:   1e-13,
				ILUT:       completeOpts,
			})
		})
}

type distApplier interface {
	Apply(c *dist.Comm, z, r []float64)
}

// checkPrecondGlobalInverse drives one exact-settings preconditioner over
// random problems and compares its collective Apply with the dense global
// solve.
func checkPrecondGlobalInverse(cfg Config, name string, seedBase int64,
	build func(s *dsys.System, n int) (distApplier, error)) []Violation {
	var out []Violation
	sizes := []int{8, 13}
	ps := []int{2, 3}
	if !cfg.Quick {
		sizes = append(sizes, 20)
		ps = append(ps, 4)
	}
	for _, n := range sizes {
		for _, p := range ps {
			seed := cfg.Seed + seedBase*int64(n) + int64(p)
			tag := repro(n, seed, fmt.Sprintf("P=%d", p))
			a := randomDiagDominant(n, 0.35, seed)
			part := randomPartition(n, p, seed)
			rg := randomRHS(n, seed)
			systems := dsys.Distribute(a, make([]float64, n), part, p)

			pcs := make([]distApplier, p)
			buildFailed := false
			for r, s := range systems {
				pc, err := build(s, n)
				if err != nil {
					out = append(out, Violation{name, fmt.Sprintf("rank %d build: %v", r, err), tag})
					buildFailed = true
					break
				}
				pcs[r] = pc
			}
			if buildFailed {
				continue
			}

			lu, err := a.Dense().Factor()
			if err != nil {
				out = append(out, Violation{name, fmt.Sprintf("dense factor: %v", err), tag})
				continue
			}
			zd := lu.Solve(rg)

			locals := dsys.Scatter(systems, rg)
			zl := make([][]float64, p)
			dist.Run(p, dist.LinuxCluster(), func(c *dist.Comm) {
				r := c.Rank()
				zl[r] = make([]float64, systems[r].NLoc())
				pcs[r].Apply(c, zl[r], locals[r])
			})
			z := dsys.Gather(systems, zl)
			if d := maxAbsDiff(z, zd); d > 1e-7*(1+maxAbs(zd)) {
				out = append(out, Violation{name,
					fmt.Sprintf("exact-settings Apply differs from dense global solve by %g", d), tag})
			}
		}
	}
	return out
}

// checkPrecondSchwarz verifies the additive Schwarz preconditioner
// against an independently composed reference: for every subdomain box
// (geometry replicated here from first principles), one DST-accelerated
// CG step on the box-restricted matrix, scatter-added over all boxes.
func checkPrecondSchwarz(cfg Config) []Violation {
	var out []Violation
	type layout struct{ m, px, py int }
	lts := []layout{{6, 2, 1}, {8, 2, 2}}
	if !cfg.Quick {
		lts = append(lts, layout{11, 3, 2})
	}
	for _, lt := range lts {
		for _, overlap := range []float64{0.05, 0.3} {
			n := lt.m * lt.m
			p := lt.px * lt.py
			tag := fmt.Sprintf("m=%d Px=%d Py=%d overlap=%g", lt.m, lt.px, lt.py, overlap)
			prob := cases.Poisson2D(lt.m)
			part := precond.BoxPartition(lt.m, lt.px, lt.py)
			systems := dsys.Distribute(prob.A, prob.B, part, p)
			opt := precond.SchwarzOptions{M: lt.m, Px: lt.px, Py: lt.py, Overlap: overlap}

			sws := make([]*precond.Schwarz, p)
			fail := false
			for r, s := range systems {
				sw, err := precond.NewSchwarz(s, prob.A, opt)
				if err != nil {
					out = append(out, Violation{"precond-schwarz", fmt.Sprintf("rank %d: %v", r, err), tag})
					fail = true
					break
				}
				sws[r] = sw
			}
			if fail {
				continue
			}
			if err := precond.WireHalo(sws); err != nil {
				out = append(out, Violation{"precond-schwarz", fmt.Sprintf("WireHalo: %v", err), tag})
				continue
			}

			rg := randomRHS(n, cfg.Seed+int64(17*lt.m+p))
			locals := dsys.Scatter(systems, rg)
			zl := make([][]float64, p)
			dist.Run(p, dist.LinuxCluster(), func(c *dist.Comm) {
				r := c.Rank()
				zl[r] = make([]float64, systems[r].NLoc())
				sws[r].Apply(c, zl[r], locals[r])
			})
			z := dsys.Gather(systems, zl)

			ref := schwarzReference(prob.A, rg, opt)
			if d := maxAbsDiff(z, ref); d > 1e-9*(1+maxAbs(ref)) {
				out = append(out, Violation{"precond-schwarz",
					fmt.Sprintf("Apply differs from composed subdomain reference by %g", d), tag})
			}
		}
	}
	return out
}

// schwarzReference composes z = Σ_i R_iᵀ·(one DST-preconditioned CG step
// on Ã_i)·R_i·r from scratch: box geometry, restriction, the straight-line
// first CG iteration (x₁ = α·M·r with α = (r·z₀)/(z₀·A·z₀)), and the
// overlapping scatter-add. Shares no code with precond.Schwarz beyond the
// sparse kernels already validated below it in the hierarchy.
func schwarzReference(a *sparse.CSR, r []float64, opt precond.SchwarzOptions) []float64 {
	m := opt.M
	z := make([]float64, m*m)
	ceil := func(x, y int) int { return (x + y - 1) / y }
	for br := 0; br < opt.Px*opt.Py; br++ {
		bi, bj := br%opt.Px, br/opt.Px
		i0, i1 := ceil(bi*m, opt.Px), ceil((bi+1)*m, opt.Px)
		j0, j1 := ceil(bj*m, opt.Py), ceil((bj+1)*m, opt.Py)
		ovx := int(opt.Overlap*float64(i1-i0)) + 1
		ovy := int(opt.Overlap*float64(j1-j0)) + 1
		ei0, ei1 := max(0, i0-ovx), min(m, i1+ovx)
		ej0, ej1 := max(0, j0-ovy), min(m, j1+ovy)
		var boxNodes []int
		for j := ej0; j < ej1; j++ {
			for i := ei0; i < ei1; i++ {
				boxNodes = append(boxNodes, j*m+i)
			}
		}
		aBox := sparse.Extract(a, boxNodes, boxNodes)
		rBox := make([]float64, len(boxNodes))
		for k, g := range boxNodes {
			rBox[k] = r[g]
		}
		pois := fft.NewPoissonSolver(ei1-ei0, ej1-ej0, 1, 1)
		z0 := pois.Solve(rBox)
		az0 := aBox.MulVec(z0)
		pap := sparse.Dot(z0, az0)
		if pap > 0 {
			alpha := sparse.Dot(rBox, z0) / pap
			for k, g := range boxNodes {
				z[g] += alpha * z0[k]
			}
		}
	}
	return z
}
