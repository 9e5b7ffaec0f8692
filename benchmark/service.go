package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"parapre/internal/gateway"
	"parapre/internal/obs"
)

// service_mix drives the gateway the way parapred's clients do: real HTTP,
// JSON and SSE over loopback against an in-process server. The loop is
// closed — one client per gateway worker, one tenant per client, each
// waiting for its answer before submitting the next system — because that
// is how a solver client behaves.

// testServer is one gateway behind a loopback HTTP listener.
type testServer struct {
	srv *gateway.Server
	ts  *httptest.Server
}

func startServer(sc scale) (*testServer, error) {
	srv, err := gateway.New(gateway.Options{Workers: sc.ServiceWorker})
	if err != nil {
		return nil, err
	}
	return &testServer{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop closes the listener (waiting for open streams to end) and drains
// the scheduler, so that no goroutine of the server outlives it.
func (s *testServer) stop() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// jobSample is what a client saw of one job. Times are seconds on the
// loop clock, which stands still while the loop is paused.
type jobSample struct {
	Seq    int
	Job    job
	Submit float64 // POST sent
	Accept float64 // 202 received
	Run    float64 // state:running received
	Resid  float64 // first residual received
	Result float64 // result received
	Closed float64 // stream closed
	Events int
	OK     bool
	Counts opCounts
	X      []float64   // cold jobs only: verified after the loop
	Trace  *opTrace    // traced pass only
	Spans  []obs.Event // traced pass only, until kept or dropped
	Wall   float64     // the server-side solve wall the result reports
	Rej429 bool
}

// serviceRun is one pass of the closed loop against one server.
type serviceRun struct {
	sc     scale
	hot    []*libConfig // the hot specs with client-side copies of their problems, for verification
	tally  *tally
	tr     *tracer
	root   int
	server *testServer
	client *http.Client
	closed bool

	mu      sync.Mutex
	seq     *jobSequence
	pending []job
	nextSeq int
	limit   int       // stop handing out jobs at this sequence number (0 = none)
	until   time.Time // … or once this deadline has passed (zero = none)

	clockBase float64 // loop-clock seconds accumulated by finished legs
	legStart  time.Time
	samples   []jobSample
}

func (r *serviceRun) now() float64 { return r.clockBase + time.Since(r.legStart).Seconds() }

// next hands the calling client its next job, or false when the leg is
// over.
func (r *serviceRun) next() (int, job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if (r.limit > 0 && r.nextSeq >= r.limit) || (!r.until.IsZero() && !time.Now().Before(r.until)) {
		return 0, job{}, false
	}
	if len(r.pending) == 0 {
		if r.pending = r.seq.nextBlock(); r.pending == nil {
			return 0, job{}, false
		}
	}
	j := r.pending[0]
	r.pending = r.pending[1:]
	r.nextSeq++
	return r.nextSeq - 1, j, true
}

// leg runs the closed loop until next says stop and waits for every
// client to finish its job in flight.
func (r *serviceRun) leg(limit int, until time.Time) {
	r.limit, r.until = limit, until
	r.legStart = time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < r.sc.ServiceWorker; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				seq, j, ok := r.next()
				if !ok {
					return
				}
				s := r.do(lane, seq, j)
				r.mu.Lock()
				r.samples = append(r.samples, s)
				r.mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	r.clockBase = r.now()
}

// do submits one job, follows its event stream to the end and checks the
// result.
func (r *serviceRun) do(lane, seq int, j job) jobSample {
	s := jobSample{Seq: seq, Job: j}
	spec := j.Spec
	spec.StreamSpans = r.tr != nil
	specKey := fmt.Sprintf("%s@%d/%s/P%d", spec.Case, spec.Size, spec.Precond, spec.Procs)
	key := fmt.Sprintf("job %d %s", seq, specKey)
	op := r.tr.newOp()
	opSpan := r.tr.begin("op", r.root, op, lane)
	defer r.tr.end(opSpan)
	fail := func(format string, a ...any) jobSample {
		r.tally.attempt(key + ": " + fmt.Sprintf(format, a...))
		return s
	}

	body, err := json.Marshal(&spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, r.server.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", fmt.Sprintf("client%d", lane))
	submitSpan := r.tr.begin("http_submit", opSpan, op, lane)
	s.Submit = r.now()
	resp, err := r.client.Do(req)
	if err != nil {
		return fail("POST: %v", err)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	_ = resp.Body.Close() // read to the end above; nothing left to lose
	s.Accept = r.now()
	r.tr.end(submitSpan)
	if resp.StatusCode != http.StatusAccepted {
		s.Rej429 = resp.StatusCode == http.StatusTooManyRequests
		return fail("POST status %d", resp.StatusCode)
	}
	if derr != nil || accepted.ID == "" {
		return fail("POST reply: %v", derr)
	}

	waitSpan := r.tr.begin("sse_wait", opSpan, op, lane)
	defer r.tr.end(waitSpan)
	stream, err := r.client.Get(r.server.ts.URL + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		return fail("GET events: %v", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fail("events status %d", stream.StatusCode)
	}
	var result *gateway.ResultSummary
	var final gateway.State
	var jobErr string
	rd := bufio.NewReader(stream.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			var e gateway.Event
			if uerr := json.Unmarshal(data, &e); uerr != nil {
				return fail("event: %v", uerr)
			}
			s.Events++
			switch e.Type {
			case "state":
				final = e.State
				if e.State == gateway.StateRunning {
					s.Run = r.now()
				}
			case "residual":
				if s.Resid == 0 {
					s.Resid = r.now()
				}
			case "span":
				if e.Span != nil {
					s.Spans = append(s.Spans, *e.Span)
				}
			case "result":
				s.Result = r.now()
				result = e.Result
			case "error":
				jobErr = e.Error
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("event stream: %v", err)
		}
	}
	s.Closed = r.now()

	switch {
	case jobErr != "":
		return fail("job error: %s", jobErr)
	case final != gateway.StateDone || result == nil:
		return fail("final state %q", final)
	case !result.Converged:
		return fail("not converged after %d iterations", result.Iterations)
	case result.TrueRelRes > relresLimit:
		return fail("reported true_rel_res %.3g > %g", result.TrueRelRes, relresLimit)
	}
	if j.Hot >= 0 {
		p := r.hot[j.Hot].Problem.Prob
		rr := relres(p.A, result.X, p.B)
		r.tally.noteRelres(rr)
		if rr > relresLimit {
			return fail("recomputed relative residual %.3g > %g", rr, relresLimit)
		}
	} else {
		s.X = result.X
	}
	r.tally.attempt("")
	s.OK = true
	s.Wall = result.Wall
	s.Counts = opCounts{Iterations: result.Iterations, Restarts: result.Restarts,
		ModelSolve: result.SolveTime, ModelSetup: result.SetupTime}
	for _, ph := range result.Phases {
		s.Counts.Flops += ph.Flops
		s.Counts.Bytes += ph.Bytes
		if ph.Phase == obs.KindSend {
			s.Counts.Msgs = ph.Count
		}
	}
	r.tally.checkExact(specKey, s.Counts)
	if r.tr != nil {
		ot, aerr := analyze(s.Spans, result.Wall)
		if aerr != nil {
			r.tally.violation(key + ": " + aerr.Error())
		}
		s.Trace = &ot
	}
	return s
}

// verifyCold recomputes the residual of every cold job's solution. It
// runs after the loop: assembling a cold problem on the client would
// otherwise compete with the server for the two cores.
func (r *serviceRun) verifyCold() error {
	for i := range r.samples {
		s := &r.samples[i]
		if !s.OK || s.X == nil {
			continue
		}
		p, err := buildCase(caseSize{s.Job.Spec.Case, s.Job.Spec.Size})
		if err != nil {
			return err
		}
		rr := relres(p.A, s.X, p.B)
		r.tally.noteRelres(rr)
		if rr > relresLimit {
			r.tally.violation(fmt.Sprintf("job %d %s@%d: recomputed relative residual %.3g > %g",
				s.Seq, s.Job.Spec.Case, s.Job.Spec.Size, rr, relresLimit))
			s.OK = false
		}
		s.X = nil
	}
	return nil
}

// warm submits every hot spec once through the closed loop, so that their
// sessions exist before anything is timed.
func (r *serviceRun) warm() {
	r.pending = make([]job, len(r.sc.Hot))
	for h, s := range r.sc.Hot {
		r.pending[h] = job{Spec: specOf(s), Hot: h}
	}
	r.leg(len(r.pending), time.Time{})
	r.pending, r.nextSeq, r.samples, r.clockBase = nil, 0, nil, 0
}

// newServiceRun starts a fresh server and warms it. The wall from
// gateway.New until the hot specs' first jobs have finished is the
// service's set-up time.
func newServiceRun(sc scale, seed int64, hot []*libConfig, t *tally, tr *tracer, root int) (*serviceRun, float64, error) {
	t0 := time.Now()
	id := tr.begin("session_setup", root, -1, 0)
	server, err := startServer(sc)
	if err != nil {
		return nil, 0, err
	}
	r := &serviceRun{sc: sc, hot: hot, tally: t, tr: tr, root: root, server: server,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sc.ServiceWorker}},
		seq:    newJobSequence(sc, seed)}
	r.warm()
	tr.end(id)
	return r, time.Since(t0).Seconds(), nil
}

// close stops the server; a second call is a no-op.
func (r *serviceRun) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.client.CloseIdleConnections()
	return r.server.stop()
}

// okSamples returns the jobs that finished correctly.
func (r *serviceRun) okSamples() []*jobSample {
	var out []*jobSample
	for i := range r.samples {
		if s := &r.samples[i]; s.OK {
			out = append(out, s)
		}
	}
	return out
}

// column extracts f from every job of in that has it.
func column(in []*jobSample, f func(*jobSample) (float64, bool)) []float64 {
	var out []float64
	for _, s := range in {
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	return out
}

// perClass returns the mean over the request classes f selects (each hot
// spec, and the cold specs together) of the q-quantile of f within the
// class. The classes differ several-fold in cost, so a quantile of the
// pooled sample would sit on a gap between two of them and jump with the
// seed.
func (r *serviceRun) perClass(in []*jobSample, q float64, f func(*jobSample) (float64, bool)) float64 {
	classes := make([][]float64, len(r.sc.Hot)+1)
	for _, s := range in {
		if v, ok := f(s); ok {
			c := s.Job.Hot
			if c < 0 {
				c = len(r.sc.Hot)
			}
			classes[c] = append(classes[c], v)
		}
	}
	var total float64
	n := 0
	for _, xs := range classes {
		if len(xs) > 0 {
			total += quantile(xs, q)
			n++
		}
	}
	return total / float64(n)
}

// latency is POST sent → result received; hitLatency the same of a hit
// only (a job on a hot spec, whose session the warm-up has built).
func latency(s *jobSample) (float64, bool)    { return s.Result - s.Submit, true }
func hitLatency(s *jobSample) (float64, bool) { return s.Result - s.Submit, s.Job.Hot >= 0 }

// quietestBlock groups the finished jobs by block of the sequence and
// returns the complete block that cost the clients least time, that time,
// and the number of complete blocks. A block's time is the sum of its
// jobs' latencies over the number of clients: in a closed loop a client is
// always inside one job, so the sum is the client time the block took, and
// it does not depend on how neighbouring blocks overlapped. Every block is
// the same multiset of hot jobs and one cold spec from each of coldStrata,
// so the blocks are windows of equal work (README.md, "Quietest window").
func (r *serviceRun) quietestBlock() (jobs []*jobSample, wall float64, blocks int) {
	size := r.sc.ServiceBlock
	byBlock := map[int][]*jobSample{}
	for _, s := range r.okSamples() {
		byBlock[s.Seq/size] = append(byBlock[s.Seq/size], s)
	}
	wall = math.Inf(1)
	for _, in := range byBlock {
		if len(in) != size {
			continue
		}
		blocks++
		if w := sum(column(in, latency)) / float64(r.sc.ServiceWorker); w < wall {
			jobs, wall = in, w
		}
	}
	return jobs, wall, blocks
}

// runServiceEndToEnd is the untraced measurement of service_mix.
func runServiceEndToEnd(o runOpts) (*runResult, error) {
	sc := o.Scale
	w, err := newLibWorkload(wlServiceMix, sc, o.Seed)
	if err != nil {
		return nil, err
	}
	hot := w.Configs
	start := time.Now()
	deadline := start.Add(time.Duration(o.Seconds * float64(time.Second)))
	t := newTally()

	var run *serviceRun
	setups := make([]float64, 0, sc.ServiceRounds)
	for i := 0; i < sc.ServiceRounds; i++ {
		if run != nil {
			if err := run.close(); err != nil {
				return nil, err
			}
		}
		var wall float64
		if run, wall, err = newServiceRun(sc, o.Seed, hot, t, nil, -1); err != nil {
			return nil, err
		}
		setups = append(setups, wall)
	}
	defer func() { _ = run.close() }() // the error path; the success path checks it below

	// Fixed leg, then the heap with the server still alive, then the timed
	// leg. Reading the heap at a fixed job count keeps it independent of
	// how many jobs the host manages in the window.
	run.leg(sc.FixedBlocks*sc.ServiceBlock, time.Time{})
	heap := heapMB()
	run.leg(0, deadline)
	if err := run.verifyCold(); err != nil {
		return nil, err
	}
	if err := run.close(); err != nil {
		return nil, err
	}

	// The medians are those of the hits, nine jobs in ten: the three misses
	// of a block are three different specs, too few and too unlike for a
	// quantile of their own. They are the tail of the pooled latencies.
	hitSolve := func(s *jobSample) (float64, bool) { return s.Result - s.Run, s.Run > 0 && s.Job.Hot >= 0 }
	jobs, wall, blocks := run.quietestBlock()
	m := metricSet{
		"setup_s":         quantile(setups, 0),
		"sweep_s":         wall,
		"solve_s":         run.perClass(jobs, 0.5, hitSolve),
		"solve_p75_s":     run.perClass(jobs, 0.75, hitSolve),
		"latency_p50_s":   run.perClass(jobs, 0.5, hitLatency),
		"latency_p95_s":   quantile(column(jobs, latency), 0.95),
		"jobs_per_s":      float64(len(jobs)) / wall,
		"session_heap_mb": heap,
	}
	res := newRunResult(wlServiceMix, t, m.finish(endToEnd, t))
	res.Samples = map[string]int{
		"jobs":         len(run.samples),
		"blocks":       blocks,
		"block_jobs":   sc.ServiceBlock,
		"setup_rounds": len(setups),
		"clients":      sc.ServiceWorker,
	}
	return res, nil
}

// prefixCounts sums the exact counts of the jobs of the fixed prefix in
// sequence order, so that the floating-point sums repeat bit for bit no
// matter which client finished first.
func (r *serviceRun) prefixCounts(prefixJobs int) (opCounts, *traceSums) {
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].Seq < r.samples[j].Seq })
	var c opCounts
	ts := newTraceSums()
	for i := range r.samples {
		s := &r.samples[i]
		if s.Seq >= prefixJobs || !s.OK {
			continue
		}
		c.add(s.Counts)
		if s.Trace != nil {
			ts.add(*s.Trace)
		}
	}
	return c, ts
}

// runServiceLayers is the traced run of service_mix.
func runServiceLayers(o runOpts) (*runResult, error) {
	sc := o.Scale
	// The hot specs as library configurations: the outside timings of the
	// layers under the service, on the service's own data.
	w, err := newLibWorkload(wlServiceMix, sc, o.Seed)
	if err != nil {
		return nil, err
	}
	hot := w.Configs
	t := newTally()
	m := metricSet{}
	tr, root, err := probeLayers(m, w)
	if err != nil {
		return nil, err
	}
	sessions, setup, err := w.setup(2, nil, -1)
	if err != nil {
		return nil, err
	}
	m["core.cold_overhead_s"] = coldOverhead(w, t, sessions, setup, nil)
	if m["core.serial_solve_s"], err = serialSolve(w.Problems[0]); err != nil {
		return nil, err
	}

	// Untraced pass: a quarter of the window, at least the fixed prefix.
	prefixJobs := sc.PrefixBlocks * sc.ServiceBlock
	plain, _, err := newServiceRun(sc, o.Seed, hot, t, nil, -1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = plain.close() }() // error path only; closed explicitly below
	heap0 := heapMB()
	mem := markMem()
	plain.leg(prefixJobs, time.Time{})
	plain.leg(0, time.Now().Add(time.Duration(o.Seconds/4*float64(time.Second))))
	jobs := len(plain.samples)
	mem.fill(m, jobs)
	heap1 := heapMB()
	if err := plain.verifyCold(); err != nil {
		return nil, err
	}
	if err := plain.close(); err != nil {
		return nil, err
	}

	// Traced pass: the fixed prefix of the same sequence against a fresh
	// server, every span streamed to the client. No more than the prefix,
	// because the server keeps every streamed span of every job.
	traced, _, err := newServiceRun(sc, o.Seed, hot, t, tr, root)
	if err != nil {
		return nil, err
	}
	defer func() { _ = traced.close() }() // error path only; closed explicitly below
	traced.leg(prefixJobs, time.Time{})
	if err := traced.verifyCold(); err != nil {
		return nil, err
	}
	if err := traced.close(); err != nil {
		return nil, err
	}

	pc, _ := plain.prefixCounts(prefixJobs)
	tc, spans := traced.prefixCounts(prefixJobs)
	if pc != tc {
		t.violation(fmt.Sprintf("prefix counts differ between passes: untraced %+v, traced %+v", pc, tc))
	}
	kept := map[int]bool{}
	for i := range traced.samples {
		s := &traced.samples[i]
		if s.Job.Hot >= 0 && !kept[s.Job.Hot] && s.Trace != nil {
			kept[s.Job.Hot] = true
			// Server-side span clocks start at the job's own collector;
			// place them at the moment the client saw the job start.
			tr.keep(fmt.Sprintf("job %d %s", s.Seq, sc.Hot[s.Job.Hot]), s.Seq, int64(s.Run*1e9), s.Spans)
		}
		s.Spans = nil
	}

	lat := func(r *serviceRun, keep func(*jobSample) bool) []float64 {
		return column(r.okSamples(), func(s *jobSample) (float64, bool) { return s.Result - s.Submit, keep(s) })
	}
	ok := plain.okSamples()
	all := func(*jobSample) bool { return true }
	m["krylov.iterations"] = float64(pc.Iterations)
	m["krylov.restarts"] = float64(pc.Restarts)
	m["dist.model_clock_s"] = pc.ModelSolve
	m["dist.model_setup_s"] = pc.ModelSetup
	m["dist.msgs_sent"] = float64(pc.Msgs)
	m["dist.bytes_sent"] = float64(pc.Bytes)
	m["dist.flops"] = pc.Flops
	var solveWall float64
	var iters int
	for i := range plain.samples {
		if s := &plain.samples[i]; s.OK {
			solveWall += s.Wall
			iters += s.Counts.Iterations
		}
	}
	m["krylov.s_per_iter"] = solveWall / float64(iters)
	spans.fill(m)
	spans.fillCounts(m, pc.Iterations)
	m["obs.trace_overhead_ratio"] = median(lat(traced, all)) /
		median(lat(plain, func(s *jobSample) bool { return s.Seq < prefixJobs }))

	m["gateway.submit_s"] = median(column(ok, func(s *jobSample) (float64, bool) { return s.Accept - s.Submit, true }))
	m["gateway.queue_wait_s"] = median(column(ok, func(s *jobSample) (float64, bool) { return s.Run - s.Accept, s.Run > 0 }))
	m["gateway.first_residual_s"] = median(column(ok, func(s *jobSample) (float64, bool) { return s.Resid - s.Run, s.Resid > 0 && s.Run > 0 }))
	m["gateway.stream_tail_s"] = median(column(ok, func(s *jobSample) (float64, bool) { return s.Closed - s.Result, true }))
	hits := lat(plain, func(s *jobSample) bool { return s.Job.Hot >= 0 })
	misses := lat(plain, func(s *jobSample) bool { return s.Job.Hot < 0 })
	m["gateway.hit_latency_p50_s"] = plain.perClass(ok, 0.5, hitLatency)
	m["gateway.miss_latency_p50_s"] = median(misses)
	m["gateway.session_hit_ratio"] = float64(len(hits)) / float64(len(hits)+len(misses))
	var events, rejected float64
	for i := range plain.samples {
		events += float64(plain.samples[i].Events)
		if plain.samples[i].Rej429 {
			rejected++
		}
	}
	m["gateway.rejected_429"] = rejected
	m["gateway.events_per_job"] = events / float64(jobs)
	m["gateway.heap_mb_per_100_jobs"] = (heap1 - heap0) / float64(jobs) * 100
	return finishLayers(wlServiceMix, o, t, m, tr, root, map[string]int{
		"untraced_jobs": jobs,
		"traced_jobs":   len(traced.samples),
		"prefix_jobs":   prefixJobs,
		"hits":          len(hits),
		"misses":        len(misses),
	})
}
