package main

import (
	"fmt"
	"time"

	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/partition"
	"parapre/internal/precond"
)

// This file times single layers from outside: the benchmark calls the
// layer's public function itself, on the workload's own data. Every
// timing is the median of probeReps calls.
const (
	probeReps = 3
	spmvReps  = 50
)

// timeMedian returns the median wall seconds of reps calls of f.
func timeMedian(reps int, f func()) float64 {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		f()
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls)
}

// buildPrecond constructs one rank's preconditioner the way core does
// for the four paper kinds.
func buildPrecond(cfg core.Config, s *dsys.System) (precond.Preconditioner, error) {
	switch cfg.Precond {
	case precond.KindBlock1:
		return precond.NewBlock1(s)
	case precond.KindBlock2:
		return precond.NewBlock2(s, cfg.ILUT)
	case precond.KindSchur1:
		return precond.NewSchur1(s, cfg.Schur1)
	case precond.KindSchur2:
		return precond.NewSchur2(s, cfg.Schur2)
	}
	return nil, fmt.Errorf("benchmark: no outside build for %q", cfg.Precond)
}

// nodeGraph is the graph core.Partition partitions for this problem, and
// the node-level view of a row partition.
func nodeGraph(p *core.Problem, part []int) (*partition.Graph, []int) {
	if p.Mesh == nil {
		return core.PatternGraph(p.A), part
	}
	ptr, adj := p.Mesh.NodeGraph()
	dpn := p.DofsPerNode
	if dpn <= 1 {
		return &partition.Graph{Ptr: ptr, Adj: adj}, part
	}
	nodePart := make([]int, p.Mesh.NumNodes())
	for n := range nodePart {
		nodePart[n] = part[n*dpn]
	}
	return &partition.Graph{Ptr: ptr, Adj: adj}, nodePart
}

// probeProblems fills the cases.* and sparse.* metrics: assembly time and
// size of the workload's problems, and the global SpMV on each. Flops
// and bytes are computed from the array sizes, not measured.
func probeProblems(m metricSet, tr *tracer, parent int, probs []*problem) {
	var flops, bytes float64
	for _, pr := range probs {
		a := pr.Prob.A
		m["cases.assemble_s"] += pr.AssembleS
		m["cases.unknowns"] += float64(a.Rows)
		m["cases.nnz"] += float64(a.NNZ())
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)
		}
		y := make([]float64, a.Rows)
		id := tr.begin("spmv", parent, -1, 0)
		m["sparse.spmv_s"] += timeMedian(spmvReps, func() { a.MulVecTo(y, x) })
		tr.end(id)
		flops += 2 * float64(a.NNZ())
		// values + column indices (both 8 bytes), row pointers, x and y.
		bytes += 16*float64(a.NNZ()) + 8*float64(a.Rows+1) + 8*float64(a.Rows+a.Cols)
		if a.AutoBlocked() != nil {
			m["sparse.bsr_routed"]++
		}
	}
	if t := m["sparse.spmv_s"]; t > 0 {
		m["sparse.spmv_gflops"] = flops / t / 1e9
	}
	if bytes > 0 {
		m["sparse.spmv_flops_per_byte"] = flops / bytes
	}
}

// probeConfigs fills the partition.*, dsys.* (outside part), ilu.* and
// precond.build_s metrics, summed over the workload's configurations.
func probeConfigs(m metricSet, tr *tracer, parent int, configs []*libConfig) error {
	var blockNNZ float64
	for _, lc := range configs {
		prob := lc.Problem.Prob
		// The timed closures keep the first error; it is checked after each
		// timing, before the result is used.
		var err error
		keep := func(e error) {
			if err == nil {
				err = e
			}
		}

		var part []int
		id := tr.begin("partition", parent, -1, 0)
		m["partition.general_s"] += timeMedian(probeReps, func() {
			p, e := core.Partition(prob, lc.Cfg)
			part = p
			keep(e)
		})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: partition: %w", lc, err)
		}
		g, nodePart := nodeGraph(prob, part)
		m["partition.edge_cut"] += float64(partition.EdgeCut(g, nodePart))
		if im := partition.Imbalance(part, lc.P); im > m["partition.imbalance"] {
			m["partition.imbalance"] = im
		}

		var systems []*dsys.System
		id = tr.begin("distribute", parent, -1, 0)
		m["dsys.distribute_s"] += timeMedian(probeReps, func() { systems = dsys.Distribute(prob.A, prob.B, part, lc.P) })
		tr.end(id)
		for _, s := range systems {
			m["dsys.iface_unknowns"] += float64(s.NIface())
		}

		id = tr.begin("precond_build", parent, -1, 0)
		m["precond.build_s"] += timeMedian(probeReps, func() {
			for _, s := range systems {
				_, e := buildPrecond(lc.Cfg, s)
				keep(e)
			}
		})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: precond build: %w", lc, err)
		}

		block := systems[0].OwnedBlock()
		blockNNZ += float64(block.NNZ())
		var lu *ilu.LU
		m["ilu.ilu0_factor_s"] += timeMedian(probeReps, func() { _, e := ilu.ILU0(block); keep(e) })
		m["ilu.ilut_factor_s"] += timeMedian(probeReps, func() {
			f, e := ilu.ILUT(block, lc.Cfg.ILUT)
			lu = f
			keep(e)
		})
		if err != nil {
			return fmt.Errorf("%s: factorization of rank 0's block: %w", lc, err)
		}
		m["ilu.factor_nnz"] += float64(lu.NNZ())
		b := make([]float64, block.Rows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, block.Rows)
		m["ilu.trisolve_s"] += timeMedian(spmvReps, func() { lu.Solve(x, b) })
	}
	if blockNNZ > 0 {
		m["ilu.fill_ratio"] = m["ilu.factor_nnz"] / blockNNZ
	}
	return nil
}

const commRoundTrips = 10000

// probeDist times the message layer alone: a two-rank ping-pong and an
// eight-rank all-reduce, commRoundTrips each, in microseconds per
// round trip.
func probeDist(m metricSet) {
	mach := dist.LinuxCluster()
	payload := []float64{1}
	t0 := time.Now()
	dist.Run(2, mach, func(c *dist.Comm) {
		for i := 0; i < commRoundTrips; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, payload)
			}
		}
	})
	m["dist.pingpong_us"] = time.Since(t0).Seconds() * 1e6 / commRoundTrips
	t0 = time.Now()
	dist.Run(8, mach, func(c *dist.Comm) {
		for i := 0; i < commRoundTrips; i++ {
			c.AllReduceSum(float64(c.Rank()))
		}
	})
	m["dist.allreduce_p8_us"] = time.Since(t0).Seconds() * 1e6 / commRoundTrips
}

// Calibration kernels, written here so that wall numbers taken on another
// host can be read as ratios. Each array is calibArrayMB, four times the
// sum of the two 4 MiB L2 caches of the reference host, so the triad
// streams from beyond L2 (the 260 MiB L3 is shared with other tenants).
const (
	calibArrayMB = 32
	calibReps    = 5
)

type calibration struct {
	TriadGBs    float64
	DaxpyGflops float64
	ArrayMB     int
}

func calibrate() calibration {
	n := calibArrayMB << 20 / 8
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = 1
	}
	triad := timeMedian(calibReps, func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	// In-cache daxpy: 2048 doubles per vector stay in L1.
	const small = 2048
	const inner = 4000
	x, y := b[:small], c[:small]
	daxpy := timeMedian(calibReps, func() {
		for r := 0; r < inner; r++ {
			for i := range x {
				y[i] += 1e-9 * x[i]
			}
		}
	})
	return calibration{
		TriadGBs:    3 * 8 * float64(n) / triad / 1e9,
		DaxpyGflops: 2 * small * inner / daxpy / 1e9,
		ArrayMB:     calibArrayMB,
	}
}

// serialSolve is the plain baseline without ranks: one P = 1 solve of the
// problem with Block 2 (at P = 1 an ILUT of the whole matrix; the Schur
// kinds have no interface to work on there).
func serialSolve(pr *problem) (float64, error) {
	t0 := time.Now()
	res, err := core.Solve(pr.Prob, core.DefaultConfig(1, precond.KindBlock2))
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return 0, fmt.Errorf("%s: serial baseline did not converge", pr.caseSize)
	}
	return wall, nil
}
