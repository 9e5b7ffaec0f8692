package verify

import (
	"fmt"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
	"parapre/internal/sparse"
)

// ilu0Solve, ic0Solve and iluT build the communication-free per-rank
// solves the dist-vs-seq cases share between both runs.
func ilu0Solve(s *dsys.System) (func(z, r []float64), error) {
	f, err := ilu.ILU0(s.OwnedBlock())
	if err != nil {
		return nil, err
	}
	return f.Solve, nil
}

func ic0Solve(s *dsys.System) (func(z, r []float64), error) {
	c, err := ilu.IC0(s.OwnedBlock())
	if err != nil {
		return nil, err
	}
	return c.Solve, nil
}

func iluT(a *sparse.CSR) (*ilu.LU, error) {
	return ilu.ILUT(a, ilu.ILUTOptions{Tau: 1e-3, LFil: 5})
}

// seqMirror replays the distributed solver arithmetic sequentially: the
// global vector is the rank-major concatenation of the owned local
// vectors, the matvec runs each rank's local product with external values
// gathered from their owners' slots, and the inner product folds the
// per-rank partials in rank order — exactly the association
// dist.AllReduceSum uses. Because every norm in the Krylov recurrences
// goes through the injected dot, the mirror reproduces the distributed
// run bit for bit (for communication-free preconditioners).
type seqMirror struct {
	systems []*dsys.System
	offs    []int   // offs[r] = concat offset of rank r's owned block
	n       int     // total owned unknowns
	extSrc  [][]int // per rank: concat index feeding each external slot
	ext     [][]float64
}

func newSeqMirror(systems []*dsys.System) *seqMirror {
	m := &seqMirror{systems: systems, offs: make([]int, len(systems)+1)}
	idx := make(map[int]int) // global id → concat index
	for r, s := range systems {
		m.offs[r+1] = m.offs[r] + s.NLoc()
		for l, g := range s.GlobalIDs {
			idx[int(g)] = m.offs[r] + l
		}
	}
	m.n = m.offs[len(systems)]
	m.extSrc = make([][]int, len(systems))
	m.ext = make([][]float64, len(systems))
	for r, s := range systems {
		m.extSrc[r] = make([]int, s.NExt())
		for k, g := range s.ExtGlobal {
			m.extSrc[r][k] = idx[int(g)]
		}
		m.ext[r] = make([]float64, s.NLoc()+s.NExt())
	}
	return m
}

// matvec is the sequential replay of the distributed A·x.
func (m *seqMirror) matvec(y, x []float64) {
	for r, s := range m.systems {
		ext := m.ext[r]
		copy(ext[:s.NLoc()], x[m.offs[r]:m.offs[r+1]])
		for k, src := range m.extSrc[r] {
			ext[s.NLoc()+k] = x[src]
		}
		s.A.MulVecTo(y[m.offs[r]:m.offs[r+1]], ext)
	}
}

// dot folds the per-rank partial inner products in rank order, matching
// the deterministic reduction of dist.AllReduceSum.
func (m *seqMirror) dot(u, v []float64) float64 {
	var acc float64
	for r := range m.systems {
		p := sparse.Dot(u[m.offs[r]:m.offs[r+1]], v[m.offs[r]:m.offs[r+1]])
		if r == 0 {
			acc = p
		} else {
			acc += p
		}
	}
	return acc
}

// prec assembles the sequential block-Jacobi preconditioner from per-rank
// local solves (nil solves mean identity → nil Prec overall).
func (m *seqMirror) prec(solves []func(z, r []float64)) krylov.Prec {
	if solves == nil {
		return nil
	}
	return func(z, r []float64) {
		for q := range m.systems {
			solves[q](z[m.offs[q]:m.offs[q+1]], r[m.offs[q]:m.offs[q+1]])
		}
	}
}

// distSolveCase is one dist-vs-seq comparison: a solver variant, a
// preconditioner built per rank from the local system, and a world size.
type distSolveCase struct {
	label string
	cg    bool
	flex  bool
	spd   bool
	// build returns the local solve for one rank (nil → unpreconditioned).
	build func(s *dsys.System) (func(z, r []float64), error)
}

func distSolveCases() []distSolveCase {
	ilut := func(s *dsys.System) (func(z, r []float64), error) {
		f, err := iluT(s.OwnedBlock())
		if err != nil {
			return nil, err
		}
		return f.Solve, nil
	}
	return []distSolveCase{
		{label: "gmres/none", build: nil},
		{label: "gmres/block1", build: ilu0Solve},
		{label: "fgmres/block2", flex: true, build: ilut},
		{label: "cg/none", cg: true, spd: true, build: nil},
		{label: "cg/blockIC", cg: true, spd: true, build: ic0Solve},
	}
}

// checkDistVsSeq pins the distributed GMRES/FGMRES/CG solvers to the
// sequential replay at P ∈ {2, 4, 8}: identical iteration counts, and
// residual histories that agree within 1e-12 of the initial norm. Any
// divergence means the parallel arithmetic is not the algorithm it claims
// to be.
func checkDistVsSeq(cfg Config) []Violation {
	var out []Violation
	ps := []int{2, 4}
	if !cfg.Quick {
		ps = append(ps, 8)
	}
	n := 24
	for _, p := range ps {
		for _, sc := range distSolveCases() {
			seed := cfg.Seed + 1600*int64(p) + int64(len(sc.label))
			var a *sparse.CSR
			if sc.spd {
				a = randomSPD(n, 0.3, seed)
			} else {
				a = randomDiagDominant(n, 0.3, seed)
			}
			part := randomPartition(n, p, seed)
			out = append(out, distVsSeqOne(sc, a, part, n, p, seed, "")...)
		}
		if !cfg.Quick && p > 2 {
			// Degenerate coverage: the last rank owns nothing.
			seed := cfg.Seed + 1700*int64(p)
			a := randomDiagDominant(n, 0.3, seed)
			part := randomPartition(n, p-1, seed)
			out = append(out, distVsSeqOne(distSolveCases()[0], a, part, n, p, seed, "empty-rank")...)
		}
	}
	return out
}

func distVsSeqOne(sc distSolveCase, a *sparse.CSR, part []int, n, p int, seed int64, note string) []Violation {
	var out []Violation
	label := sc.label
	if note != "" {
		label += "/" + note
	}
	tag := func(extra string) string { return repro(n, seed, fmt.Sprintf("P=%d case=%s %s", p, label, extra)) }

	bg := randomRHS(n, seed)
	systems := dsys.Distribute(a, bg, part, p)

	// Per-rank local solves, shared verbatim by both runs.
	var solves []func(z, r []float64)
	if sc.build != nil {
		solves = make([]func(z, r []float64), p)
		for r, s := range systems {
			sv, err := sc.build(s)
			if err != nil {
				return []Violation{{"dist-vs-seq", fmt.Sprintf("rank %d preconditioner: %v", r, err), tag("")}}
			}
			solves[r] = sv
		}
	}

	opt := krylov.Options{Restart: 8, MaxIters: 40, Tol: 1e-8, Flexible: sc.flex, RecordHistory: true}

	// Distributed run.
	results := make([]krylov.Result, p)
	xl := make([][]float64, p)
	locals := dsys.Scatter(systems, bg)
	dist.Run(p, dist.LinuxCluster(), func(c *dist.Comm) {
		r := c.Rank()
		s := systems[r]
		xl[r] = make([]float64, s.NLoc())
		var prec krylov.Prec
		if solves != nil {
			prec = func(z, rr []float64) { solves[r](z, rr) }
		}
		o := opt
		if sc.cg {
			results[r] = krylov.DistributedCG(c, s, prec, locals[r], xl[r], o)
		} else {
			results[r] = krylov.Distributed(c, s, prec, locals[r], xl[r], o)
		}
	})

	// The recurrence is replicated: every rank must report the same run.
	for r := 1; r < p; r++ {
		if results[r].Iterations != results[0].Iterations || len(results[r].History) != len(results[0].History) {
			out = append(out, Violation{"dist-vs-seq",
				fmt.Sprintf("rank %d reports %d iterations (%d history entries), rank 0 %d (%d) — the replicated recurrence diverged across ranks",
					r, results[r].Iterations, len(results[r].History), results[0].Iterations, len(results[0].History)),
				tag("")})
			return out
		}
	}

	// Sequential mirror.
	m := newSeqMirror(systems)
	bm := make([]float64, m.n)
	for r, lb := range locals {
		copy(bm[m.offs[r]:m.offs[r+1]], lb)
	}
	xm := make([]float64, m.n)
	var res krylov.Result
	if sc.cg {
		res = krylov.CG(m.n, m.matvec, m.prec(solves), krylov.UpdateThenDot(m.dot), bm, xm, opt)
	} else {
		res = krylov.GMRES(m.n, m.matvec, m.prec(solves), krylov.UpdateThenDot(m.dot), bm, xm, opt)
	}

	d0 := results[0]
	if res.Iterations != d0.Iterations || res.Converged != d0.Converged {
		out = append(out, Violation{"dist-vs-seq",
			fmt.Sprintf("sequential replay: %d iterations (converged=%v), distributed: %d (converged=%v)",
				res.Iterations, res.Converged, d0.Iterations, d0.Converged), tag("")})
		return out
	}
	if len(res.History) != len(d0.History) {
		out = append(out, Violation{"dist-vs-seq",
			fmt.Sprintf("history lengths differ: sequential %d, distributed %d", len(res.History), len(d0.History)), tag("")})
		return out
	}
	if len(d0.History) > 0 {
		ref := d0.History[0]
		if ref == 0 {
			ref = 1
		}
		for i := range d0.History {
			if d := absf(res.History[i] - d0.History[i]); d > 1e-12*ref {
				out = append(out, Violation{"dist-vs-seq",
					fmt.Sprintf("history[%d]: sequential %.17g, distributed %.17g (Δ/h0 = %g)",
						i, res.History[i], d0.History[i], d/ref), tag("")})
				return out
			}
		}
	}
	// The iterates must agree too (same arithmetic ⇒ same solution).
	xd := make([]float64, m.n)
	for r := range systems {
		copy(xd[m.offs[r]:m.offs[r+1]], xl[r])
	}
	if d := maxAbsDiff(xd, xm); d > 1e-10*(1+maxAbs(xm)) {
		out = append(out, Violation{"dist-vs-seq",
			fmt.Sprintf("solutions differ by %g between distributed and sequential replay", d), tag("")})
	}
	return out
}
