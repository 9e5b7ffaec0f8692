package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parapre/internal/core"
	"parapre/internal/obs"
)

// libWorkload is a set of configurations the library is driven with
// directly: one of the three solver workloads, or the hot specs of
// service_mix seen from under the gateway. A sweep is one pass over the
// configurations: the 28 cold cells of paper_tables, or one right-hand
// side on each kept session of warm_block / warm_schur.
type libWorkload struct {
	Cold     bool // operations are cold core.Solve calls, not Session solves
	Problems []*problem
	Configs  []*libConfig
	Rounds   int // set-up rounds, the first discarded
	Prefix   int // sweeps of the fixed prefix
	Window   int // sweeps per window of the untraced run
}

// newLibWorkload assembles the workload's problems (timed, outside every
// measured region) and draws their right-hand sides from the seed. The
// service's hot problems keep the cases' own right-hand sides, which is
// what the server solves for a named case.
func newLibWorkload(name string, sc scale, seed int64) (*libWorkload, error) {
	w := &libWorkload{}
	var specs []sessionSpec
	nRHS := 1
	switch name {
	case wlPaperTables:
		w.Cold, w.Rounds, w.Prefix, w.Window = true, sc.PaperRounds, 1, 1
		specs = sc.paperCells()
	case wlWarmBlock:
		specs, nRHS = sc.WarmBlock, sc.WarmRHS[name]
		w.Rounds, w.Prefix, w.Window = sc.WarmRounds, sc.WarmPrefix, nRHS
	case wlWarmSchur:
		specs, nRHS = sc.WarmSchur, sc.WarmRHS[name]
		w.Rounds, w.Prefix, w.Window = sc.WarmRounds, sc.WarmPrefix, nRHS
	case wlServiceMix:
		w.Prefix = 1
		specs, nRHS = sc.Hot, 0
	default:
		return nil, fmt.Errorf("benchmark: unknown workload %q", name)
	}
	rng := rand.New(rand.NewSource(seed))
	byCase := map[caseSize]*problem{}
	for _, s := range specs {
		pr, ok := byCase[s.caseSize]
		if !ok {
			t0 := time.Now()
			p, err := buildCase(s.caseSize)
			if err != nil {
				return nil, err
			}
			pr = &problem{caseSize: s.caseSize, Prob: p, AssembleS: time.Since(t0).Seconds()}
			if nRHS == 0 {
				pr.RHS = [][]float64{p.B}
			} else {
				pr.RHS = seededRHS(p, nRHS, rng)
				// Cold solves and dsys.Distribute read the problem's own
				// right-hand side: make it the first seeded one.
				p.B = pr.RHS[0]
			}
			byCase[s.caseSize] = pr
			w.Problems = append(w.Problems, pr)
		}
		w.Configs = append(w.Configs, newLibConfig(s, pr))
	}
	return w, nil
}

// setup builds every configuration's session rounds times and returns the
// last round's sessions with each configuration's fastest set-up wall
// (first round discarded when there is more than one). The fastest, not
// the median: other tenants of the host only ever add time.
func (w *libWorkload) setup(rounds int, tr *tracer, parent int) ([]*core.Session, []float64, error) {
	sessions := make([]*core.Session, len(w.Configs))
	walls := make([][]float64, len(w.Configs))
	for r := 0; r < rounds; r++ {
		for ci, lc := range w.Configs {
			id := tr.begin("session_setup", parent, -1, 0)
			t0 := time.Now()
			s, err := core.NewSession(lc.Problem.Prob, lc.Cfg)
			wall := time.Since(t0).Seconds()
			tr.end(id)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: NewSession: %w", lc, err)
			}
			sessions[ci] = s
			if r > 0 || rounds == 1 {
				walls[ci] = append(walls[ci], wall)
			}
		}
	}
	best := make([]float64, len(walls))
	for ci := range walls {
		best[ci] = quantile(walls[ci], 0)
	}
	return sessions, best, nil
}

// libPass is one pass (untraced or traced) over a library workload.
type libPass struct {
	w     *libWorkload
	tally *tally
	tr    *tracer // nil for the untraced pass

	walls  [][]float64 // per configuration, one per sweep
	sweeps []float64   // sum of the operation walls of each sweep
	ops    int

	// Over the fixed prefix only, so that they repeat exactly.
	prefix           opCounts
	commNum, commDen float64
	tracePrefix      *traceSums
	traceAll         *traceSums
}

func newLibPass(w *libWorkload, t *tally, tr *tracer) *libPass {
	return &libPass{w: w, tally: t, tr: tr, walls: make([][]float64, len(w.Configs)),
		tracePrefix: newTraceSums(), traceAll: newTraceSums()}
}

// solve runs one operation through the pipeline named by cold and checks
// its result: error, convergence flag, recomputed residual, the per-rank
// clock identity and the exact counts. It returns the wall of the public
// call alone.
func (p *libPass) solve(ci, k int, cold bool, sess *core.Session, inPrefix bool, parent int) float64 {
	lc := p.w.Configs[ci]
	b := lc.Problem.RHS[k]
	op := p.tr.newOp()
	opSpan := p.tr.begin("op", parent, op, 0)
	var col *obs.Collector
	var offset int64
	if p.tr != nil {
		col, offset = p.tr.collector()
	}
	solveSpan := p.tr.begin("solve", opSpan, op, 0)
	var res *core.Result
	var err error
	t0 := time.Now()
	if cold {
		cfg := lc.Cfg
		cfg.Collector = col
		res, err = core.Solve(lc.Problem.Prob, cfg)
	} else {
		res, err = sess.SolveWith(b, core.SolveOptions{Collector: col})
	}
	wall := time.Since(t0).Seconds()
	p.tr.end(solveSpan)
	p.tr.end(opSpan)

	key := fmt.Sprintf("%s#rhs%d", lc, k)
	if cold {
		key += "#cold"
	}
	switch {
	case err != nil:
		p.tally.attempt(fmt.Sprintf("%s: %v", key, err))
		return wall
	case res.Err != nil:
		p.tally.attempt(fmt.Sprintf("%s: %v", key, res.Err))
		return wall
	case !res.Converged:
		p.tally.attempt(fmt.Sprintf("%s: not converged after %d iterations", key, res.Iterations))
		return wall
	}
	rr := relres(lc.Problem.Prob.A, res.X, b)
	p.tally.noteRelres(rr)
	if rr > relresLimit {
		p.tally.attempt(fmt.Sprintf("%s: recomputed relative residual %.3g > %g", key, rr, relresLimit))
		return wall
	}
	p.tally.attempt("")

	c := opCounts{Iterations: res.Iterations, Restarts: res.Restarts, ModelSolve: res.SolveTime, ModelSetup: res.SetupTime}
	var comm, clock float64
	for _, st := range res.PerRank {
		c.Msgs += st.MsgsSent
		c.Bytes += st.BytesSent
		c.Flops += st.Flops
		comm += st.CommTime
		clock += st.Clock
		if d := math.Abs(st.Clock - (st.ComputeTime + st.CommTime + st.FaultDelay)); d > 1e-12 {
			p.tally.violation(fmt.Sprintf("%s: rank %d clock differs from compute+comm+fault by %g", key, st.Rank, d))
		}
	}
	p.tally.checkExact(key, c)
	if inPrefix {
		p.prefix.add(c)
		p.commNum += comm
		p.commDen += clock
	}
	if col != nil {
		events := col.Events()
		ot, aerr := analyze(events, wall)
		if aerr != nil {
			p.tally.violation(fmt.Sprintf("%s: %v", key, aerr))
		}
		p.traceAll.add(ot)
		if inPrefix {
			p.tracePrefix.add(ot)
			p.tr.keep(key, op, offset, events)
		}
	}
	return wall
}

// sweep runs sweep number k: every configuration once, on right-hand side
// k modulo the number it has.
func (p *libPass) sweep(k int, sessions []*core.Session, parent int) {
	var total float64
	for ci, lc := range p.w.Configs {
		var sess *core.Session
		if !p.w.Cold {
			sess = sessions[ci]
		}
		wall := p.solve(ci, k%len(lc.Problem.RHS), p.w.Cold, sess, k < p.w.Prefix, parent)
		p.walls[ci] = append(p.walls[ci], wall)
		total += wall
		p.ops++
	}
	p.sweeps = append(p.sweeps, total)
}

// run sweeps until the deadline, but never fewer than minSweeps. The zero
// deadline runs exactly minSweeps.
func (p *libPass) run(sessions []*core.Session, deadline time.Time, minSweeps, parent int) {
	for k := 0; k < minSweeps || time.Now().Before(deadline); k++ {
		p.sweep(k, sessions, parent)
	}
}

// quietestWindow cuts the sweeps into consecutive windows of size sweeps
// and returns the bounds and the wall of the window that took least time;
// an incomplete last window is left out. The untraced run reports every
// timing from that one window (README.md, "Quietest window").
func (p *libPass) quietestWindow(size int) (lo, hi int, wall float64) {
	wall = math.Inf(1)
	for k := 0; k+size <= len(p.sweeps); k += size {
		if w := sum(p.sweeps[k : k+size]); w < wall {
			lo, hi, wall = k, k+size, w
		}
	}
	return lo, hi, wall
}

// overConfigs returns the mean over configurations of the q-quantile of
// each configuration's walls in sweeps lo to hi. Quantiles are taken per
// configuration because pooling cells or sessions of different cost gives
// a multimodal sample whose quantiles sit on the gaps between the modes.
func (p *libPass) overConfigs(lo, hi int, q float64) float64 {
	per := make([]float64, len(p.walls))
	for ci := range p.walls {
		per[ci] = quantile(p.walls[ci][lo:hi], q)
	}
	return sum(per) / float64(len(per))
}

// heapMB returns the live heap in MB after two forced collections: the
// second empties the sync.Pool victim caches (the sessions' pooled Krylov
// workspaces), whose size depends on how solves happened to overlap.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runLibEndToEnd is the untraced measurement of a library workload.
func runLibEndToEnd(name string, o runOpts) (*runResult, error) {
	w, err := newLibWorkload(name, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.Seconds * float64(time.Second)))
	t := newTally()
	sessions, setup, err := w.setup(w.Rounds, nil, -1)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	if w.Cold {
		sessions = nil // cold cells build their own; release the set-up round's
	}
	pass := newLibPass(w, t, nil)
	pass.run(sessions, deadline, max(w.Prefix, w.Window), -1)

	lo, hi, wall := pass.quietestWindow(w.Window)
	m := metricSet{
		"setup_s":         sum(setup),
		"sweep_s":         wall / float64(w.Window),
		"solve_s":         pass.overConfigs(lo, hi, 0.5),
		"solve_p75_s":     pass.overConfigs(lo, hi, 0.75),
		"latency_p50_s":   pass.overConfigs(lo, hi, 0.5),
		"latency_p95_s":   pass.overConfigs(lo, hi, 0.95),
		"jobs_per_s":      float64(w.Window*len(w.Configs)) / wall,
		"session_heap_mb": heap,
	}
	r := newRunResult(name, t, m.finish(endToEnd, t))
	r.Samples = map[string]int{
		"sweeps":          len(pass.sweeps),
		"windows":         len(pass.sweeps) / w.Window,
		"window_sweeps":   w.Window,
		"ops":             pass.ops,
		"configs":         len(w.Configs),
		"setup_per_round": len(w.Configs),
		"setup_rounds":    w.Rounds,
	}
	return r, nil
}

// probeLayers starts the traced run of a workload: a tracer with the
// workload's root span, and every outside timing of a single layer.
func probeLayers(m metricSet, w *libWorkload) (*tracer, int, error) {
	tr := newTracer()
	root := tr.begin("workload", -1, -1, 0)
	for _, pr := range w.Problems {
		// Assembly happened before the tracer existed; show it as a span of
		// its measured length at the origin.
		tr.record("assemble", root, 0, int64(pr.AssembleS*1e9))
	}
	probeProblems(m, tr, root, w.Problems)
	if err := probeConfigs(m, tr, root, w.Configs); err != nil {
		return nil, 0, err
	}
	probeDist(m)
	return tr, root, nil
}

// runLibLayers is the traced run of a library workload: outside timings
// of single layers, a short untraced pass, the same pass traced, and the
// checks that tie the two together.
func runLibLayers(name string, o runOpts) (*runResult, error) {
	w, err := newLibWorkload(name, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	t := newTally()
	m := metricSet{}
	tr, root, err := probeLayers(m, w)
	if err != nil {
		return nil, err
	}

	sessions, setup, err := w.setup(2, tr, root)
	if err != nil {
		return nil, err
	}

	// Untraced pass: a quarter of the window, at least the fixed prefix.
	mem := markMem()
	plain := newLibPass(w, t, nil)
	plain.run(sessions, time.Now().Add(time.Duration(o.Seconds/4*float64(time.Second))), w.Prefix, -1)
	mem.fill(m, plain.ops)

	// Traced pass: the same sweeps.
	traced := newLibPass(w, t, tr)
	traced.run(sessions, time.Time{}, len(plain.sweeps), root)
	if plain.prefix != traced.prefix {
		t.violation(fmt.Sprintf("prefix counts differ between passes: untraced %+v, traced %+v", plain.prefix, traced.prefix))
	}

	c := plain.prefix
	m["krylov.iterations"] = float64(c.Iterations)
	m["krylov.restarts"] = float64(c.Restarts)
	m["krylov.s_per_iter"] = sum(plain.sweeps[:w.Prefix]) / float64(c.Iterations)
	m["dist.model_clock_s"] = c.ModelSolve
	m["dist.model_setup_s"] = c.ModelSetup
	m["dist.model_comm_share"] = plain.commNum / plain.commDen
	m["dist.msgs_sent"] = float64(c.Msgs)
	m["dist.bytes_sent"] = float64(c.Bytes)
	m["dist.flops"] = c.Flops
	traced.traceAll.fill(m)
	traced.tracePrefix.fillCounts(m, c.Iterations)
	m["obs.trace_overhead_ratio"] = sum(traced.sweeps) / sum(plain.sweeps)

	known := make([]float64, len(w.Configs))
	for ci := range known {
		known[ci] = plain.walls[ci][0]
	}
	m["core.cold_overhead_s"] = coldOverhead(w, t, sessions, setup, known)

	if m["core.serial_solve_s"], err = serialSolve(w.Problems[0]); err != nil {
		return nil, err
	}
	if name == wlWarmBlock {
		if err := probeCheckpoint(m, t, w.Configs[0], sessions[0], median(plain.walls[0]), o.OutDir); err != nil {
			return nil, err
		}
	}
	return finishLayers(name, o, t, m, tr, root, map[string]int{
		"untraced_sweeps": len(plain.sweeps),
		"traced_sweeps":   len(traced.sweeps),
		"prefix_ops":      w.Prefix * len(w.Configs),
		"traced_ops":      traced.traceAll.Ops,
	})
}

// memMark remembers the allocation counters at the start of a pass.
type memMark struct{ ms runtime.MemStats }

func markMem() *memMark {
	var mm memMark
	runtime.ReadMemStats(&mm.ms)
	return &mm
}

// fill writes the allocation and GC-pause metrics of the pass since the
// mark, which ran ops operations.
func (mm *memMark) fill(m metricSet, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m["core.alloc_mb_per_solve"] = float64(now.TotalAlloc-mm.ms.TotalAlloc) / 1e6 / float64(ops)
	m["core.gc_pause_ms"] = float64(now.PauseTotalNs-mm.ms.PauseTotalNs) / 1e6
}

// finishLayers ends a traced run: the metrics every workload takes last,
// the trace file, the result.
func finishLayers(name string, o runOpts, t *tally, m metricSet, tr *tracer, root int, samples map[string]int) (*runResult, error) {
	m["core.peak_rss_mb"] = peakRSSMB()
	cal := calibrate() // after the peak is read: its arrays are the benchmark's, not the workload's
	m["calib.triad_gb_s"], m["calib.daxpy_gflops"] = cal.TriadGBs, cal.DaxpyGflops
	m["krylov.final_relres_max"] = t.maxRelres
	m["failed_ratio"] = t.failedRatio()

	tr.end(root)
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.OutDir, "trace_"+name+".json"), name); err != nil {
		return nil, err
	}
	r := newRunResult(name, t, m.finish(perLayer, t))
	r.Samples = samples
	r.Calibration = &cal
	return r, nil
}

// coldOverhead compares the two pipelines of ROADMAP item 2 over the same
// configurations and the first right-hand side: Σ cold core.Solve minus
// Σ (NewSession + Session.Solve). known holds the walls the workload's own
// pipeline already measured in sweep 0 (nil: measure both here).
func coldOverhead(w *libWorkload, t *tally, sessions []*core.Session, setup, known []float64) float64 {
	pass := newLibPass(w, t, nil)
	var coldS, warmS float64
	for ci := range w.Configs {
		var cold, warm float64
		switch {
		case known != nil && w.Cold:
			cold, warm = known[ci], pass.solve(ci, 0, false, sessions[ci], false, -1)
		case known != nil:
			cold, warm = pass.solve(ci, 0, true, nil, false, -1), known[ci]
		default:
			cold, warm = pass.solve(ci, 0, true, nil, false, -1), pass.solve(ci, 0, false, sessions[ci], false, -1)
		}
		coldS += cold
		warmS += setup[ci] + warm
	}
	return coldS - warmS
}

const (
	ckptSolves = 6
	ckptEvery  = 10
)

// probeCheckpoint measures what -checkpoint-every costs: ckptSolves extra
// solves on the session with a checkpoint every ckptEvery iterations,
// against the plain median of the same session.
func probeCheckpoint(m metricSet, t *tally, lc *libConfig, sess *core.Session, plainMedian float64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "bench.ckpt")
	defer func() { _ = os.Remove(path) }() // scratch file; nothing depends on its removal
	walls := make([]float64, 0, ckptSolves)
	for k := 0; k < ckptSolves; k++ {
		b := lc.Problem.RHS[k%len(lc.Problem.RHS)]
		t0 := time.Now()
		res, err := sess.SolveWith(b, core.SolveOptions{CheckpointEvery: ckptEvery, CheckpointPath: path})
		walls = append(walls, time.Since(t0).Seconds())
		reason := ""
		switch {
		case err != nil:
			reason = fmt.Sprintf("%s checkpointed: %v", lc, err)
		case !res.Converged:
			reason = fmt.Sprintf("%s checkpointed: not converged", lc)
		case relres(lc.Problem.Prob.A, res.X, b) > relresLimit:
			reason = fmt.Sprintf("%s checkpointed: residual above %g", lc, relresLimit)
		}
		t.attempt(reason)
	}
	m["ckpt.overhead_ratio"] = median(walls) / plainMedian
	if st, err := os.Stat(path); err == nil {
		m["ckpt.bytes_per_checkpoint"] = float64(st.Size())
	}
	return nil
}
