package mslr

import (
	"math/rand"

	"parapre/internal/ilu"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

// newRNG returns the deterministic generator used for bisection restarts
// and Arnoldi probe vectors.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// dot is the sequential inner product (bit-reproducible at any worker
// count; the vectors involved are short separator blocks).
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// tnode is one node of the separator hierarchy over a contiguous index
// range of the reordered interior block. A leaf holds a direct ILUT
// factor; an internal node holds two recursing interiors, the separator
// coupling blocks E, F, C, the separator factor C̃ and its low-rank Schur
// correction.
type tnode struct {
	n int

	// leaf
	fact *ilu.LU

	// internal: rows ordered [child0 | child1 | separator]
	child0, child1 *tnode
	n0, n1, nS     int
	e, f, c        *sparse.CSR // E: sep×int, F: int×sep, C: sep×sep
	cFact          *ilu.LU
	lr             *lowRank

	// scratch for solve (per-rank sequential, never shared)
	gHat, y, corr, fTmp []float64

	solveFlops float64
}

// solve computes out = M⁻¹·in over the node's index range: a direct
// factor sweep at a leaf, the [B F; E C] block solve with the low-rank
// corrected Schur inverse at an internal node.
func (t *tnode) solve(out, in []float64) {
	if t.fact != nil {
		t.fact.Solve(out, in)
		return
	}
	nI := t.n0 + t.n1
	t.solveInteriors(out[:nI], in[:nI])
	if t.nS == 0 {
		return
	}
	// ĝ = g − E·u′ with u′ the interior solves already in out.
	copy(t.gHat, in[nI:])
	t.e.MulVecSub(t.gHat, out[:nI])
	// y = S⁻¹ĝ ≈ C̃⁻¹·(ĝ + V((I−H)⁻¹−I)Vᵀĝ).
	t.lr.correct(t.corr, t.gHat)
	t.cFact.Solve(t.y, t.corr)
	// Interior back-substitution: z = B⁻¹(f − F·y).
	copy(t.fTmp, in[:nI])
	t.f.MulVecSub(t.fTmp, t.y)
	t.solveInteriors(out[:nI], t.fTmp)
	copy(out[nI:], t.y)
}

// solveInteriors applies both children over their halves of the interior
// range (the halves are decoupled by the separator).
func (t *tnode) solveInteriors(out, in []float64) {
	if t.child0 != nil {
		t.child0.solve(out[:t.n0], in[:t.n0])
	}
	if t.child1 != nil {
		t.child1.solve(out[t.n0:], in[t.n0:])
	}
}

// split is the first-pass skeleton of the hierarchy: vertex lists in the
// original interior-block numbering, before any matrix is extracted.
type split struct {
	verts      []int // leaf only
	int0, int1 *split
	sep        []int
	seed       int64
}

func (sp *split) size() int {
	if sp == nil {
		return 0
	}
	if sp.int0 == nil && sp.int1 == nil {
		return len(sp.verts)
	}
	return sp.int0.size() + sp.int1.size() + len(sp.sep)
}

func (sp *split) flatten(order *[]int) {
	if sp == nil {
		return
	}
	if sp.int0 == nil && sp.int1 == nil {
		*order = append(*order, sp.verts...)
		return
	}
	sp.int0.flatten(order)
	sp.int1.flatten(order)
	*order = append(*order, sp.sep...)
}

// symPattern builds the symmetrized adjacency graph of the square matrix
// b (self-loops dropped), the structure the nested bisection cuts.
func symPattern(b *sparse.CSR) *partition.Graph {
	n := b.Rows
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = map[int]struct{}{}
	}
	for i := 0; i < n; i++ {
		cols, _ := b.Row(i)
		for _, j := range cols {
			if j == i || j >= n {
				continue
			}
			adj[i][j] = struct{}{}
			adj[j][i] = struct{}{}
		}
	}
	g := &partition.Graph{Ptr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		g.Ptr[i] = len(g.Adj)
		nb := make([]int, 0, len(adj[i]))
		for j := range adj[i] {
			nb = append(nb, j)
		}
		sortInts(nb)
		g.Adj = append(g.Adj, nb...)
	}
	g.Ptr[n] = len(g.Adj)
	return g
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// splitVerts recursively bisects the vertex subset. The separator is
// one-sided: the part-1 vertices adjacent to part 0. Removing them
// decouples part 0 from the rest of part 1 in both directions, because
// any part-1 vertex with a part-0 neighbor is in the separator by
// construction.
func splitVerts(g *partition.Graph, verts []int, level int, opts Options, seed int64) (*split, error) {
	if level >= opts.Levels || len(verts) <= opts.MinBlock {
		return &split{verts: verts, seed: seed}, nil
	}
	// Induced subgraph with local numbering.
	g2l := make(map[int]int, len(verts))
	for li, v := range verts {
		g2l[v] = li
	}
	sub := &partition.Graph{Ptr: make([]int, len(verts)+1)}
	for li, v := range verts {
		sub.Ptr[li] = len(sub.Adj)
		for _, w := range g.Neighbors(v) {
			if lw, ok := g2l[w]; ok {
				sub.Adj = append(sub.Adj, lw)
			}
		}
	}
	sub.Ptr[len(verts)] = len(sub.Adj)

	part, err := partition.General(sub, 2, seed)
	if err != nil {
		return nil, err
	}
	inSep := make([]bool, len(verts))
	n0 := 0
	for li := range verts {
		if part[li] == 0 {
			n0++
			continue
		}
		for _, lw := range sub.Adj[sub.Ptr[li]:sub.Ptr[li+1]] {
			if part[lw] == 0 {
				inSep[li] = true
				break
			}
		}
	}
	if n0 == 0 || n0 == len(verts) {
		// Degenerate cut: stop recursing here.
		return &split{verts: verts, seed: seed}, nil
	}
	var v0, v1, sep []int
	for li, v := range verts {
		switch {
		case part[li] == 0:
			v0 = append(v0, v)
		case inSep[li]:
			sep = append(sep, v)
		default:
			v1 = append(v1, v)
		}
	}
	sp := &split{sep: sep, seed: seed}
	if sp.int0, err = splitVerts(g, v0, level+1, opts, 2*seed+1); err != nil {
		return nil, err
	}
	if len(v1) > 0 {
		if sp.int1, err = splitVerts(g, v1, level+1, opts, 2*seed+2); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// span lists the indices [lo, lo+n).
func span(lo, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// buildNode materializes the hierarchy over the reordered matrix bp:
// factor leaves, extract and factor separator blocks, and probe each
// separator's Schur residual for its low-rank correction.
func buildNode(bp *sparse.CSR, sp *split, lo int, opts Options, setup *float64) (*tnode, error) {
	n := sp.size()
	if sp.int0 == nil && sp.int1 == nil {
		idx := span(lo, n)
		fact, err := ilu.ILUT(sparse.Extract(bp, idx, idx), opts.ILUT)
		if err != nil {
			return nil, err
		}
		*setup += 2 * float64(fact.NNZ())
		return &tnode{n: n, fact: fact, solveFlops: fact.SolveFlops()}, nil
	}
	t := &tnode{n: n, n0: sp.int0.size(), n1: sp.int1.size(), nS: len(sp.sep)}
	var err error
	if t.child0, err = buildNode(bp, sp.int0, lo, opts, setup); err != nil {
		return nil, err
	}
	if t.n1 > 0 {
		if t.child1, err = buildNode(bp, sp.int1, lo+t.n0, opts, setup); err != nil {
			return nil, err
		}
	}
	nI := t.n0 + t.n1
	t.solveFlops = 2 * (childFlops(t.child0) + childFlops(t.child1))
	if t.nS == 0 {
		return t, nil
	}
	intR := span(lo, nI)
	sepR := span(lo+nI, t.nS)
	t.e = sparse.Extract(bp, sepR, intR)
	t.f = sparse.Extract(bp, intR, sepR)
	t.c = sparse.Extract(bp, sepR, sepR)
	if t.cFact, err = ilu.ILUT(t.c, opts.ILUT); err != nil {
		return nil, err
	}
	*setup += 2 * float64(t.cFact.NNZ())

	// Probe G = I − S·C̃⁻¹ matrix-free through the freshly built interior
	// solves: S·w = C·w − E·(B⁻¹(F·w)).
	tBuf := make([]float64, t.nS)
	sBuf := make([]float64, t.nS)
	fBuf := make([]float64, nI)
	uBuf := make([]float64, nI)
	gApply := func(dst, x []float64) {
		t.cFact.Solve(tBuf, x)
		t.f.MulVecTo(fBuf, tBuf)
		t.solveInteriors(uBuf, fBuf)
		t.c.MulVecTo(sBuf, tBuf)
		t.e.MulVecAdd(sBuf, -1, uBuf)
		for i := range dst {
			dst[i] = x[i] - sBuf[i]
		}
	}
	if t.lr, err = buildLowRank(t.nS, opts.Rank, gApply, newRNG(sp.seed*31+7)); err != nil {
		return nil, err
	}
	*setup += t.lr.buildFlops(t.nS)

	t.gHat = make([]float64, t.nS)
	t.y = make([]float64, t.nS)
	t.corr = make([]float64, t.nS)
	t.fTmp = make([]float64, nI)
	t.solveFlops += 2*float64(t.e.NNZ()+t.f.NNZ()) +
		t.cFact.SolveFlops() + t.lr.applyFlops(t.nS)
	return t, nil
}

func childFlops(t *tnode) float64 {
	if t == nil {
		return 0
	}
	return t.solveFlops
}

// buildTree builds the hierarchy over the square interior block b. It
// returns the root, the ordering (perm[i] is the b-row stored at
// reordered position i) and the modeled setup flops.
func buildTree(b *sparse.CSR, opts Options, seed int64) (*tnode, []int, float64, error) {
	n := b.Rows
	sp, err := splitVerts(symPattern(b), span(0, n), 0, opts, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	order := make([]int, 0, n)
	sp.flatten(&order)
	bp := sparse.Extract(b, order, order)
	var setup float64
	root, err := buildNode(bp, sp, 0, opts, &setup)
	if err != nil {
		return nil, nil, 0, err
	}
	return root, order, setup, nil
}
