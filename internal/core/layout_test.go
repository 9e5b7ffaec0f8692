package core_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

var paperKinds = []precond.Kind{precond.KindSchur1, precond.KindSchur2, precond.KindBlock1, precond.KindBlock2}

// sameSystems reports whether two sessions hold the very same distributed
// systems (pointer-equal, rank by rank).
func sameSystems(a, b *core.Session) bool {
	sa, sb := a.Systems(), b.Systems()
	if len(sa) != len(sb) {
		return false
	}
	for r := range sa {
		if sa[r] != sb[r] {
			return false
		}
	}
	return true
}

func newSession(t *testing.T, prob *core.Problem, cfg core.Config) *core.Session {
	t.Helper()
	s, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// counter reads one solve-level counter out of the collector's metrics
// snapshot (0 when the sample is absent).
func counter(t *testing.T, col *obs.Collector, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "parapre_"+name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// The memo's unit of sharing: every session on one Problem with the same P,
// scheme and seed holds the same systems whatever its preconditioner;
// anything the partition depends on gives its own.
func TestLayoutSharedAcrossKinds(t *testing.T) {
	const size = 17
	prob := buildProblem(t, "tc1-poisson2d", size)
	base := newSession(t, prob, core.DefaultConfig(4, paperKinds[0]))
	for _, k := range paperKinds[1:] {
		if s := newSession(t, prob, core.DefaultConfig(4, k)); !sameSystems(base, s) {
			t.Errorf("%s and %s at P=4 hold different systems", paperKinds[0], k)
		}
	}
	sw := precond.DefaultSchwarz(size, 2, 2, false)
	others := map[string]func(*core.Config){
		"P":        func(c *core.Config) { c.P = 8 },
		"scheme":   func(c *core.Config) { c.Scheme = core.PartitionSimple },
		"PartSeed": func(c *core.Config) { c.PartSeed = 99 },
		"Schwarz":  func(c *core.Config) { c.Schwarz = &sw },
	}
	for name, mutate := range others {
		cfg := core.DefaultConfig(4, precond.KindBlock1)
		mutate(&cfg)
		s := newSession(t, prob, cfg)
		if sameSystems(base, s) {
			t.Errorf("another %s shares the base layout", name)
		}
		if again := newSession(t, prob, cfg); !sameSystems(s, again) {
			t.Errorf("another %s: second session did not reuse the first's layout", name)
		}
	}
	sw2 := precond.DefaultSchwarz(size, 4, 1, false)
	cfg := core.DefaultConfig(4, precond.KindNone)
	cfg.Schwarz = &sw
	a := newSession(t, prob, cfg)
	cfg.Schwarz = &sw2
	if b := newSession(t, prob, cfg); sameSystems(a, b) {
		t.Error("2×2 and 4×1 Schwarz boxes share a layout")
	}
	if fresh := newSession(t, buildProblem(t, "tc1-poisson2d", size), core.DefaultConfig(4, paperKinds[0])); sameSystems(base, fresh) {
		t.Error("two Problems share a layout")
	}
}

// A layout is keyed by what its partitioner reads. The box partitioner of a
// problem with a mesh reads no seed, so a second machine — another seed —
// finds the first one's layout; a problem without a mesh goes to the
// general partitioner whatever the scheme, so the box scheme finds the
// general one's. Keyed by scheme and seed, each pair built two identical
// layouts and the problem held both.
func TestLayoutKeyIsWhatThePartitionerReads(t *testing.T) {
	simple := func(m *dist.Machine) func(*core.Config) {
		return func(c *core.Config) { c.Scheme, c.Machine = core.PartitionSimple, m }
	}
	withMesh := buildProblem(t, "tc1-poisson2d", 33)
	meshless := &core.Problem{Name: withMesh.Name, A: withMesh.A, B: withMesh.B}
	for _, tc := range []struct {
		name string
		prob *core.Problem
		a, b func(*core.Config)
	}{
		{"box scheme on a mesh, two machines", withMesh, simple(dist.LinuxCluster()), simple(dist.Origin3800())},
		{"no mesh, both schemes", meshless,
			func(c *core.Config) { c.Scheme = core.PartitionGeneral }, simple(dist.LinuxCluster())},
	} {
		var sessions []*core.Session
		var builds float64
		var held []int64
		for _, mutate := range []func(*core.Config){tc.a, tc.b} {
			cfg := core.DefaultConfig(4, precond.KindBlock1)
			mutate(&cfg)
			cfg.Collector = obs.NewCollector()
			sessions = append(sessions, newSession(t, tc.prob, cfg))
			builds += counter(t, cfg.Collector, "layout_builds")
			held = append(held, tc.prob.Bytes())
		}
		if builds != 1 {
			t.Errorf("%s: %v layout builds, want 1", tc.name, builds)
		}
		if !sameSystems(sessions[0], sessions[1]) {
			t.Errorf("%s: the two sessions hold different systems", tc.name)
		}
		if held[1] != held[0] {
			t.Errorf("%s: Problem.Bytes %d with one session, %d with both", tc.name, held[0], held[1])
		}
	}
}

// assertSameBits demands got be indistinguishable from want: every
// reported number bit for bit, PerRank field by field.
func assertSameBits(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Restarts != want.Restarts {
		t.Fatalf("%s: %d iterations (converged %v, %d restarts), want %d (%v, %d)", label,
			got.Iterations, got.Converged, got.Restarts, want.Iterations, want.Converged, want.Restarts)
	}
	if !bitEqual(got.X, want.X) || !bitEqual(got.History, want.History) {
		t.Fatalf("%s: solution or residual history differ in some bit", label)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"SetupTime", got.SetupTime, want.SetupTime}, {"SolveTime", got.SolveTime, want.SolveTime},
		{"Residual", got.Residual, want.Residual}, {"TrueRelRes", got.TrueRelRes, want.TrueRelRes},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s %x, want %x", label, f.name, math.Float64bits(f.got), math.Float64bits(f.want))
		}
	}
	if len(got.PerRank) != len(want.PerRank) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got.PerRank), len(want.PerRank))
	}
	for r := range want.PerRank {
		g, w := reflect.ValueOf(got.PerRank[r]), reflect.ValueOf(want.PerRank[r])
		for i := 0; i < w.NumField(); i++ {
			same := g.Field(i).Interface() == w.Field(i).Interface()
			if w.Field(i).Kind() == reflect.Float64 {
				same = math.Float64bits(g.Field(i).Float()) == math.Float64bits(w.Field(i).Float())
			}
			if !same {
				t.Fatalf("%s: rank %d %s = %v, want %v", label, r, w.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		}
	}
}

// A result from a Problem that has been solved before — other kinds, other
// P, both pipelines — is the result a fresh Problem gives, bit for bit.
func TestLayoutReuseKeepsBits(t *testing.T) {
	for _, c := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 25}, {"tc5-convdiff", 25}, {"tc6-elasticity", 13}} {
		used := buildProblem(t, c.name, c.size)
		for _, p := range []int{4, 8} {
			for _, k := range paperKinds {
				label := fmt.Sprintf("%s@%d/%s/P%d", c.name, c.size, k, p)
				cfg := core.DefaultConfig(p, k)
				cfg.KeepX = true
				cfg.Solver.RecordHistory = true
				cfg.Solver.MaxIters = 60 // tc6 under a block preconditioner runs to the cap
				want, err := core.Solve(buildProblem(t, c.name, c.size), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := core.Solve(used, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameBits(t, label+" Solve", want, got)

				wantS, err := newSession(t, buildProblem(t, c.name, c.size), cfg).Solve(nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gotS, err := newSession(t, used, cfg).Solve(nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameBits(t, label+" Session", wantS, gotS)
			}
		}
	}
}

// The same under a fault plan (the supervised runtime and its per-rank
// fault streams) and when resuming from a checkpoint.
func TestLayoutReuseKeepsBitsFaultsAndRestore(t *testing.T) {
	const name, size = "tc5-convdiff", 25
	cfg := core.DefaultConfig(4, precond.KindSchur1)
	cfg.KeepX = true
	cfg.Solver.RecordHistory = true
	used := buildProblem(t, name, size)
	if _, err := core.Solve(used, core.DefaultConfig(4, precond.KindBlock1)); err != nil {
		t.Fatal(err)
	}

	faulty := cfg
	faulty.Faults = &dist.FaultPlan{Seed: 1, DelayProb: 0.25, DelayMax: 2e-3, StragglerEvery: 2, StragglerFactor: 4}
	want, err := core.Solve(buildProblem(t, name, size), faulty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Solve(used, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if want.PerRank[0].FaultDelay == 0 {
		t.Fatal("the plan injected nothing")
	}
	assertSameBits(t, "fault plan", want, got)

	sink := newMemSink()
	ckCfg := cfg
	ckCfg.Precond = precond.KindBlock1
	ckCfg.CheckpointEvery, ckCfg.CheckpointSink = 3, sink
	full, err := core.Solve(buildProblem(t, name, size), ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(p *core.Problem, ck *ckpt.Checkpoint) *core.Result {
		c := cfg
		c.Precond = precond.KindBlock1
		c.Restore = ck
		res, err := core.Solve(p, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ck := sink.at(t, 6)
	resumed := restore(used, ck)
	assertSameBits(t, "restore on a used Problem", restore(buildProblem(t, name, size), ck), resumed)
	if resumed.Iterations != full.Iterations || !bitEqual(resumed.X, full.X) {
		t.Fatal("restore on a used Problem does not land on the uninterrupted run")
	}
}

// A is re-read by every set-up and B by every solve: after an in-place edit
// the next result is a fresh Problem's, not a replay of the distribution
// built before the edit. The edits are the ones callers make — rescaled
// entries, flipped signs, a power-of-two scaling, a single entry — and the
// sign and scaling cases are those a weakly mixing fingerprint cannot see.
func TestLayoutSeesInPlaceEdit(t *testing.T) {
	const name, size = "tc5-convdiff", 25
	cfg := core.DefaultConfig(4, precond.KindBlock2)
	cfg.KeepX = true
	cfg.Solver.RecordHistory = true
	scaleAll := func(f func(i int) float64) func(*core.Problem) {
		return func(p *core.Problem) {
			for i := range p.A.Val {
				p.A.Val[i] *= f(i)
			}
		}
	}
	edits := []struct {
		label string
		edit  func(*core.Problem)
	}{
		{"mantissas and B", func(p *core.Problem) {
			scaleAll(func(i int) float64 { return 1 + float64(i%5)/8 })(p)
			b := make([]float64, len(p.B))
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			p.B = b
		}},
		{"two signs", func(p *core.Problem) {
			// Two entries of one interior row.
			k := p.A.RowPtr[p.A.Rows/2]
			p.A.Val[k], p.A.Val[k+1] = -p.A.Val[k], -p.A.Val[k+1]
		}},
		{"every sign", scaleAll(func(int) float64 { return -1 })},
		{"every sign but one", func(p *core.Problem) { // whichever parity nnz has
			scaleAll(func(int) float64 { return -1 })(p)
			p.A.Val[0] = -p.A.Val[0]
		}},
		{"doubled", scaleAll(func(int) float64 { return 2 })},
		{"one entry", func(p *core.Problem) { p.A.Val[len(p.A.Val)/2] *= 3 }},
	}
	for _, e := range edits {
		t.Run(e.label, func(t *testing.T) {
			edit := func(p *core.Problem) {
				e.edit(p)
				p.A.InvalidateBlocked()
			}
			used := buildProblem(t, name, size)
			first, err := core.Solve(used, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := newSession(t, used, cfg)
			edit(used)
			fresh := buildProblem(t, name, size)
			edit(fresh)
			want, err := core.Solve(fresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bitEqual(want.X, first.X) {
				t.Fatal("the edit changed nothing")
			}

			got, err := core.Solve(used, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Solve after the edit", want, got)
			after := newSession(t, used, cfg)
			if sameSystems(sess, after) {
				t.Fatal("a session set up after the edit holds the systems built before it")
			}
			gotS, err := after.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			wantS, err := newSession(t, fresh, cfg).Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Session after the edit", wantS, gotS)
		})
	}
}

// A layout lives exactly as long as its Problem (and the sessions that
// were handed it): nothing package-level holds on to it.
func TestLayoutDiesWithProblem(t *testing.T) {
	var freed atomic.Bool
	func() {
		prob := buildProblem(t, "tc1-poisson2d", 17)
		sess := newSession(t, prob, core.DefaultConfig(4, precond.KindBlock1))
		if _, err := core.Solve(prob, core.DefaultConfig(4, precond.KindBlock2)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(sess.Systems()[0], func(*dsys.System) { freed.Store(true) })
	}()
	for i := 0; i < 10 && !freed.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !freed.Load() {
		t.Fatal("the distributed systems outlive the Problem and its sessions")
	}
}

// Sessions of different kinds set up at the same time on one Problem build
// one layout between them (and a different P its own, concurrently), then
// solve over the shared systems at the same time; every result is the solo
// run's. Run under -race.
func TestConcurrentSessionsShareLayout(t *testing.T) {
	const name, size = "tc1-poisson2d", 33
	type job struct {
		kind precond.Kind
		p    int
	}
	jobs := []job{{precond.KindBlock2, 4}, {precond.KindSchur1, 4}, {precond.KindBlock2, 8}, {precond.KindSchur1, 8}}
	config := func(j job) core.Config {
		cfg := core.DefaultConfig(j.p, j.kind)
		cfg.KeepX = true
		cfg.Solver.RecordHistory = true
		return cfg
	}
	solo := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if solo[i], err = core.Solve(buildProblem(t, name, size), config(j)); err != nil {
			t.Fatal(err)
		}
	}

	prob := buildProblem(t, name, size)
	sessions := make([]*core.Session, len(jobs))
	cols := make([]*obs.Collector, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		cols[i] = obs.NewCollector()
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			cfg := config(j)
			cfg.Collector = cols[i]
			sessions[i], errs[i] = core.NewSession(prob, cfg)
		}(i, j)
	}
	wg.Wait()
	builds, reuses := map[int]float64{}, map[int]float64{}
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		builds[j.p] += counter(t, cols[i], "layout_builds")
		reuses[j.p] += counter(t, cols[i], "layout_reuses")
	}
	for _, p := range []int{4, 8} {
		if builds[p] != 1 || reuses[p] != 1 {
			t.Errorf("P=%d: %v builds and %v reuses over two concurrent set-ups, want 1 and 1", p, builds[p], reuses[p])
		}
	}
	if !sameSystems(sessions[0], sessions[1]) || !sameSystems(sessions[2], sessions[3]) || sameSystems(sessions[0], sessions[2]) {
		t.Error("sessions do not share systems exactly per P")
	}

	results := make([]*core.Result, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sessions[i].SolveWith(nil, core.SolveOptions{Collector: obs.NewCollector()})
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := *solo[i]
		want.SetupTime = sessions[i].SetupTime() // only the one-shot solve charges set-up to the clocks
		want.SolveTime, want.PerRank = results[i].SolveTime, results[i].PerRank
		assertSameBits(t, fmt.Sprintf("%s/P%d concurrent", j.kind, j.p), &want, results[i])
		again, err := sessions[i].Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, fmt.Sprintf("%s/P%d alone afterwards", j.kind, j.p), again, results[i])
	}
}

// One problem, as a service holds it for every spec on one system: the
// paper's four preconditioners are built and solved on it at the same time
// while its bytes and theirs are counted, and each gives, bit for bit, the
// iterations, history and solution it gives on a problem of its own. Run
// under -race: the count walks the shared systems while the solves
// exchange through their halo buffers.
func TestSharedProblemConcurrentSolves(t *testing.T) {
	const name, size = "tc1-poisson2d", 33
	config := func(kind precond.Kind) core.Config {
		cfg := core.DefaultConfig(4, kind)
		cfg.KeepX = true
		cfg.Solver.RecordHistory = true
		return cfg
	}
	solo := make([]*core.Result, len(paperKinds))
	for i, kind := range paperKinds {
		var err error
		if solo[i], err = newSession(t, buildProblem(t, name, size), config(kind)).Solve(nil); err != nil {
			t.Fatal(err)
		}
	}

	prob := buildProblem(t, name, size)
	results := make([]*core.Result, len(paperKinds))
	errs := make([]error, len(paperKinds))
	done := make(chan struct{})
	var wg, counting sync.WaitGroup
	counting.Add(1)
	go func() {
		defer counting.Done()
		for {
			select {
			case <-done:
				return
			default:
				prob.Bytes()
			}
		}
	}()
	for i, kind := range paperKinds {
		wg.Add(1)
		go func(i int, kind precond.Kind) {
			defer wg.Done()
			sess, err := core.NewSession(prob, config(kind))
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = sess.SolveWith(nil, core.SolveOptions{Collector: obs.NewCollector()})
			sess.Bytes()
		}(i, kind)
	}
	wg.Wait()
	close(done)
	counting.Wait()
	for i, kind := range paperKinds {
		if errs[i] != nil {
			t.Fatalf("%s: %v", kind, errs[i])
		}
		got, want := results[i], solo[i]
		if got.Iterations != want.Iterations || !bitEqual(got.History, want.History) || !bitEqual(got.X, want.X) {
			t.Errorf("%s on the shared problem: %d iterations, or its history or X, differ from %d on its own",
				kind, got.Iterations, want.Iterations)
		}
	}
}

// The counters reach the metrics text a front end writes: the first set-up
// on a Problem paid for its layout, the second found it, and a cold Solve
// says the same.
func TestLayoutCountersInMetrics(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 17)
	for i, want := range []string{
		"parapre_layout_builds{solve=\"a\"} 1\nparapre_layout_reuses{solve=\"a\"} 0\n",
		"parapre_layout_builds{solve=\"a\"} 0\nparapre_layout_reuses{solve=\"a\"} 1\n",
		"parapre_layout_builds{solve=\"a\"} 0\nparapre_layout_reuses{solve=\"a\"} 1\n",
	} {
		cfg := core.DefaultConfig(4, paperKinds[i])
		cfg.Collector = obs.NewCollector()
		if i < 2 {
			newSession(t, prob, cfg)
		} else if _, err := core.Solve(prob, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Collector.WriteMetrics(&buf, map[string]string{"solve": "a"}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("set-up %d: metrics lack\n%s\ngot\n%s", i, want, buf.String())
		}
	}
}

// The right-hand side is scattered at solve time, so its length is checked
// there: a wrong one is an error from every entry point, not a panic inside
// the distribution, and a session needs none to be set up.
func TestWrongLengthRHSIsAnError(t *testing.T) {
	cfg := core.DefaultConfig(2, precond.KindBlock1)
	for _, b := range [][]float64{nil, make([]float64, 3)} {
		prob := buildProblem(t, "tc1-poisson2d", 9)
		good := prob.B
		prob.B = b
		want := fmt.Sprintf("core: rhs length %d, want %d", len(b), prob.A.Rows)
		if _, err := core.Solve(prob, cfg); err == nil || err.Error() != want {
			t.Errorf("Solve with %d-long B: error %v, want %q", len(b), err, want)
		}
		sess, err := core.NewSession(prob, cfg)
		if err != nil {
			t.Fatalf("NewSession with %d-long B: %v", len(b), err)
		}
		if _, err := sess.Solve(nil); err == nil || err.Error() != want {
			t.Errorf("Session.Solve(nil) with %d-long B: error %v, want %q", len(b), err, want)
		}
		res, err := sess.Solve(good)
		if err != nil || !res.Converged {
			t.Errorf("Session.Solve(b) on a Problem with %d-long B: %v, %+v", len(b), err, res)
		}
	}
}
