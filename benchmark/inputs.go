package main

import (
	"fmt"
	"math/rand"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/gateway"
	"parapre/internal/precond"
)

// The four workloads. The names are fixed: later issues quote a number as
// (metric, workload, median, sample count).
const (
	wlPaperTables = "paper_tables"
	wlWarmBlock   = "warm_block"
	wlWarmSchur   = "warm_schur"
	wlServiceMix  = "service_mix"
)

var workloadNames = []string{wlPaperTables, wlWarmBlock, wlWarmSchur, wlServiceMix}

// caseSize names one assembled test problem.
type caseSize struct {
	Case string
	Size int
}

func (c caseSize) String() string { return fmt.Sprintf("%s@%d", c.Case, c.Size) }

// sessionSpec is one (problem, preconditioner, P) the library is driven
// with: a cold cell of paper_tables or a kept session of warm_*.
type sessionSpec struct {
	caseSize
	Kind precond.Kind
	P    int
}

func (s sessionSpec) String() string {
	return fmt.Sprintf("%s/%s/P%d", s.caseSize, s.Kind, s.P)
}

// scale fixes every size of the benchmark. "full" is what BENCHMARK.json
// measures; "tiny" exists only so the smoke test finishes in seconds.
type scale struct {
	Name string

	// paper_tables: every problem × the paper's four preconditioners ×
	// PaperProcs, except that PaperSchurOnly problems skip Block 1/2
	// (tc6 with a block preconditioner does not converge in 1000
	// iterations, and a workload may not contain failing operations).
	PaperProblems  []caseSize
	PaperSchurOnly map[string]bool
	PaperProcs     []int
	PaperRounds    int // set-up rounds (the first is discarded)

	WarmBlock []sessionSpec
	WarmSchur []sessionSpec
	// WarmRHS is the number of right-hand sides per session, by workload.
	// One pass over them on every session is one window of the untraced
	// run, two to three seconds of solves, so that every window does the
	// same work (README.md, "Quietest window").
	WarmRHS    map[string]int
	WarmRounds int // session rebuilds (the first is discarded)
	// WarmPrefix sweeps (one right-hand side on every session) form the
	// fixed prefix that the exact counts and the traced pass cover.
	WarmPrefix int

	Hot []sessionSpec // service_mix hot specs, warmed before timing
	// Odd cold sizes, inclusive. The range lies above the hot sizes, so a
	// cold spec can never coincide with a hot one and be a hidden hit, and
	// a miss (assemble, set up, solve) costs more than any hit.
	ColdLo, ColdHi int
	ServiceRounds  int // fresh servers for setup_s
	// ServiceBlock jobs form one block: one cold spec from each of
	// coldStrata, used exactly once, the rest drawn from the hot specs.
	ServiceBlock  int
	FixedBlocks   int // blocks of the fixed leg (heap is read after it)
	PrefixBlocks  int // blocks the exact counts and the traced pass cover
	ServiceWorker int // gateway workers, and closed-loop clients: one per worker
}

var paperKinds = []precond.Kind{precond.KindSchur1, precond.KindSchur2, precond.KindBlock1, precond.KindBlock2}

func fullScale() scale {
	return scale{
		Name: "full",
		PaperProblems: []caseSize{
			{"tc1-poisson2d", 129}, {"tc2-poisson3d", 21}, {"tc5-convdiff", 129}, {"tc6-elasticity", 49},
		},
		PaperSchurOnly: map[string]bool{"tc6-elasticity": true},
		PaperProcs:     []int{4, 8},
		PaperRounds:    3,
		WarmBlock: []sessionSpec{
			{caseSize{"tc1-poisson2d", 129}, precond.KindBlock2, 4},
			{caseSize{"tc5-convdiff", 129}, precond.KindBlock1, 2},
		},
		WarmSchur: []sessionSpec{
			{caseSize{"tc1-poisson2d", 129}, precond.KindSchur1, 8},
			{caseSize{"tc6-elasticity", 65}, precond.KindSchur2, 8},
		},
		WarmRHS:    map[string]int{wlWarmBlock: 24, wlWarmSchur: 12},
		WarmRounds: 9,
		WarmPrefix: 4,
		Hot: []sessionSpec{
			{caseSize{"tc1-poisson2d", 129}, precond.KindBlock2, 4},
			{caseSize{"tc5-convdiff", 129}, precond.KindBlock1, 4},
			{caseSize{"tc2-poisson3d", 21}, precond.KindSchur2, 4},
			{caseSize{"tc1-poisson2d", 129}, precond.KindSchur1, 8},
		},
		ColdLo: 131, ColdHi: 145,
		ServiceRounds: 5,
		ServiceBlock:  30,
		FixedBlocks:   3, PrefixBlocks: 1,
		ServiceWorker: 2,
	}
}

func tinyScale() scale {
	return scale{
		Name: "tiny",
		PaperProblems: []caseSize{
			{"tc1-poisson2d", 17}, {"tc2-poisson3d", 5}, {"tc5-convdiff", 17}, {"tc6-elasticity", 9},
		},
		PaperSchurOnly: map[string]bool{"tc6-elasticity": true},
		PaperProcs:     []int{4, 8},
		PaperRounds:    2,
		WarmBlock: []sessionSpec{
			{caseSize{"tc1-poisson2d", 33}, precond.KindBlock2, 4},
			{caseSize{"tc5-convdiff", 33}, precond.KindBlock1, 2},
		},
		WarmSchur: []sessionSpec{
			{caseSize{"tc1-poisson2d", 33}, precond.KindSchur1, 8},
			{caseSize{"tc6-elasticity", 17}, precond.KindSchur2, 8},
		},
		WarmRHS:    map[string]int{wlWarmBlock: 3, wlWarmSchur: 3},
		WarmRounds: 3,
		WarmPrefix: 2,
		Hot: []sessionSpec{
			{caseSize{"tc1-poisson2d", 17}, precond.KindBlock2, 4},
			{caseSize{"tc5-convdiff", 17}, precond.KindBlock1, 4},
			{caseSize{"tc2-poisson3d", 5}, precond.KindSchur2, 4},
			{caseSize{"tc1-poisson2d", 17}, precond.KindSchur1, 8},
		},
		ColdLo: 19, ColdHi: 33,
		ServiceRounds: 2,
		ServiceBlock:  20,
		FixedBlocks:   2, PrefixBlocks: 1,
		ServiceWorker: 2,
	}
}

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return fullScale(), nil
	case "tiny":
		return tinyScale(), nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (have full, tiny)", name)
}

// paperCells is the cell list of paper_tables. It depends on the scale
// only, never on the seed.
func (sc scale) paperCells() []sessionSpec {
	var cells []sessionSpec
	for _, pr := range sc.PaperProblems {
		for _, k := range paperKinds {
			if sc.PaperSchurOnly[pr.Case] && k != precond.KindSchur1 && k != precond.KindSchur2 {
				continue
			}
			for _, p := range sc.PaperProcs {
				cells = append(cells, sessionSpec{pr, k, p})
			}
		}
	}
	return cells
}

// problem is one assembled system with the seeded right-hand sides the
// benchmark solves it for.
type problem struct {
	caseSize
	Prob      *core.Problem
	AssembleS float64
	RHS       [][]float64
}

// seededRHS makes count right-hand sides b = A·x with x uniform in
// [-1, 1], drawn from rng in order.
func seededRHS(p *core.Problem, count int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, count)
	x := make([]float64, p.A.Rows)
	for k := range out {
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		out[k] = csrMul(p.A, x)
	}
	return out
}

// buildCase assembles the named case through the library's public entry.
func buildCase(cs caseSize) (*core.Problem, error) {
	c, err := cases.ByName(cs.Case)
	if err != nil {
		return nil, err
	}
	return c.Build(cs.Size), nil
}

// libConfig is a sessionSpec bound to its assembled problem.
type libConfig struct {
	sessionSpec
	Problem *problem
	Cfg     core.Config
}

func newLibConfig(s sessionSpec, pr *problem) *libConfig {
	cfg := core.DefaultConfig(s.P, s.Kind)
	cfg.KeepX = true // the gather the user needs is part of every timed solve
	return &libConfig{sessionSpec: s, Problem: pr, Cfg: cfg}
}

// job is one entry of the service_mix sequence.
type job struct {
	Spec gateway.Spec
	// Hot indexes scale.Hot; -1 marks a cold spec. Hot specs are warmed
	// before timing, so a hot job is a session-cache hit and a cold one a miss.
	Hot int
}

func specOf(s sessionSpec) gateway.Spec {
	return gateway.Spec{Case: s.Case, Size: s.Size, Procs: s.P, Precond: string(s.Kind), ReturnX: true}
}

// coldStrata are the preconditioners of a block's cold specs: every block
// has one miss with a Block kind, one with Schur 1 and one with Schur 2,
// so that the misses of every block cost about the same.
var coldStrata = [][]precond.Kind{
	{precond.KindBlock1, precond.KindBlock2}, {precond.KindSchur1}, {precond.KindSchur2},
}

// jobSequence generates the closed loop's jobs block by block. Block b is
// the same multiset of jobs for every seed — the hot specs in fixed
// numbers and one cold spec from each of coldStrata — so that a run of
// any length does the same work whatever the seed; the seed decides the
// order of the jobs within each block. A cold spec is used exactly once:
// the sequence ends when a stratum has none left.
type jobSequence struct {
	sc     scale
	rng    *rand.Rand
	cold   [][]sessionSpec // per stratum, every cold spec once, in the order of use
	blocks int
}

func newJobSequence(sc scale, seed int64) *jobSequence {
	js := &jobSequence{sc: sc, rng: rand.New(rand.NewSource(seed))}
	for i, kinds := range coldStrata {
		var specs []sessionSpec
		for _, k := range kinds {
			for _, c := range []string{"tc1-poisson2d", "tc5-convdiff"} {
				for size := sc.ColdLo | 1; size <= sc.ColdHi; size += 2 {
					specs = append(specs, sessionSpec{caseSize{c, size}, k, 4})
				}
			}
		}
		// A fixed order of use, mixed so that neighbouring blocks differ in
		// size and case; it does not depend on the seed.
		rand.New(rand.NewSource(int64(i))).Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
		js.cold = append(js.cold, specs)
	}
	return js
}

// nextBlock returns the next ServiceBlock jobs of the sequence, or nil
// when the sequence has ended.
func (js *jobSequence) nextBlock() []job {
	sc := js.sc
	block := make([]job, 0, sc.ServiceBlock)
	for _, specs := range js.cold {
		if js.blocks >= len(specs) {
			return nil
		}
		block = append(block, job{Spec: specOf(specs[js.blocks]), Hot: -1})
	}
	for i := 0; len(block) < sc.ServiceBlock; i++ {
		h := i % len(sc.Hot)
		block = append(block, job{Spec: specOf(sc.Hot[h]), Hot: h})
	}
	js.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	js.blocks++
	return block
}
