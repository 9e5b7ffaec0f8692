package core_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"parapre/internal/core"
	"parapre/internal/krylov"
	"parapre/internal/obs"
	"parapre/internal/precond"
)

// A session's solves must be safe to overlap — the gateway multiplexes
// requests over one cached session per problem spec. Run under -race.
func TestConcurrentSolvesIdentical(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindBlock2)
	cfg.Solver.RecordHistory = true
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := make([]*core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sess.Solve(nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
	}
	ref := results[0]
	if !ref.Converged {
		t.Fatal("reference solve did not converge")
	}
	for i := 1; i < n; i++ {
		r := results[i]
		if r.Iterations != ref.Iterations || r.SolveTime != ref.SolveTime || r.Residual != ref.Residual {
			t.Fatalf("solve %d diverged: %d/%v/%v vs %d/%v/%v",
				i, r.Iterations, r.SolveTime, r.Residual, ref.Iterations, ref.SolveTime, ref.Residual)
		}
		if len(r.History) != len(ref.History) {
			t.Fatalf("solve %d history length %d vs %d", i, len(r.History), len(ref.History))
		}
		for j := range ref.History {
			if r.History[j] != ref.History[j] {
				t.Fatalf("solve %d history[%d]: %v vs %v", i, j, r.History[j], ref.History[j])
			}
		}
	}
}

// Communicating preconditioners cannot overlap; the session serializes
// them internally, so concurrent callers still get correct (identical)
// answers rather than a deadlock or a race.
func TestConcurrentSolvesSerialOnlySession(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindSchur1)
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	results := make([]*core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sess.Solve(nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if results[i].Iterations != results[0].Iterations || results[i].SolveTime != results[0].SolveTime {
			t.Fatalf("solve %d diverged from solve 0", i)
		}
	}
}

// The RCM-ordered Blocks take their apply scratch from pools and hold no
// lock, so overlapping solves on one session really overlap:
// run under -race, several solves per session at once, each on its own
// right-hand side, must return the iterates a serial solve of the same
// right-hand side does, bit for bit.
func TestConcurrentPooledBlocksMatchSerial(t *testing.T) {
	prob := buildProblem(t, "tc5-convdiff", 33)
	configs := []sessionConfig{
		{"RCM Block 1", precond.KindBlock1, func(cfg *core.Config) { cfg.RCM = true }},
		{"RCM Block 2", precond.KindBlock2, func(cfg *core.Config) { cfg.RCM = true }},
	}
	const n = 4
	rhs := make([][]float64, n)
	for i := range rhs {
		rhs[i] = make([]float64, prob.A.Rows)
		for k := range rhs[i] {
			rhs[i][k] = prob.B[k] * float64(1+(i+k)%(i+2))
		}
	}
	for _, tc := range configs {
		cfg := tc.config(4)
		cfg.KeepX = true
		cfg.Solver.MaxIters = 200 // a solve that scratch shared by mistake derails ends soon
		sess, err := core.NewSession(prob, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		serial := make([]*core.Result, n)
		for i, b := range rhs {
			if serial[i], err = sess.SolveWith(b, core.SolveOptions{}); err != nil || !serial[i].Converged {
				t.Fatalf("%s serial %d: converged %v, %v", tc.name, i, serial[i] != nil && serial[i].Converged, err)
			}
		}
		concurrent := make([]*core.Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, b := range rhs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent[i], errs[i] = sess.SolveWith(b, core.SolveOptions{})
			}()
		}
		wg.Wait()
		for i := range rhs {
			if errs[i] != nil {
				t.Fatalf("%s concurrent %d: %v", tc.name, i, errs[i])
			}
			want, got := serial[i], concurrent[i]
			if got.Iterations != want.Iterations || len(got.X) != len(want.X) {
				t.Fatalf("%s rhs %d: %d iterations and %d unknowns concurrently, %d and %d serially",
					tc.name, i, got.Iterations, len(got.X), want.Iterations, len(want.X))
			}
			for k := range want.X {
				if math.Float64bits(got.X[k]) != math.Float64bits(want.X[k]) {
					t.Fatalf("%s rhs %d: X[%d] = %v concurrently, %v serially", tc.name, i, k, got.X[k], want.X[k])
				}
			}
		}
	}
}

// sessionConfig is one way to build a session: a preconditioner kind and
// what else the configuration needs.
type sessionConfig struct {
	name   string
	kind   precond.Kind
	mutate func(*core.Config)
}

// sessionConfigs lists every preconditioner a session can be built with,
// on the 2D square of side size.
func sessionConfigs(size int) []sessionConfig {
	sw := precond.DefaultSchwarz(size, 2, 2, true)
	return []sessionConfig{
		{"Block 1", precond.KindBlock1, nil},
		{"Block 2", precond.KindBlock2, nil},
		{"Block IC", precond.KindBlockIC, nil},
		{"None", precond.KindNone, nil},
		{"Schur 1", precond.KindSchur1, nil},
		{"Schur 2", precond.KindSchur2, nil},
		{"Schwarz", precond.KindNone, func(cfg *core.Config) { cfg.Schwarz = &sw }},
		{"Block 1 overlap", precond.KindBlock1, func(cfg *core.Config) { cfg.OverlapLevels = 1 }},
		{"Block 2 overlap", precond.KindBlock2, func(cfg *core.Config) { cfg.OverlapLevels = 1 }},
	}
}

func (tc sessionConfig) config(p int) core.Config {
	cfg := core.DefaultConfig(p, tc.kind)
	if tc.mutate != nil {
		tc.mutate(&cfg)
	}
	return cfg
}

// Per-solve overrides compose with concurrency: each solve gets its own
// collector and progress stream, and canceling one must not disturb the
// others.
func TestConcurrentSolveWithIndependentOverrides(t *testing.T) {
	prob := buildProblem(t, "tc1-poisson2d", 33)
	cfg := core.DefaultConfig(4, precond.KindBlock1)
	cfg.Solver.RecordHistory = true
	sess, err := core.NewSession(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	const victim = 2
	results := make([]*core.Result, n)
	errs := make([]error, n)
	colls := make([]*obs.Collector, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		colls[i] = obs.NewCollector()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			var hist []float64
			opts := core.SolveOptions{
				Ctx:       ctx,
				Collector: colls[i],
				Progress: func(it int, resid float64) {
					mu.Lock()
					if it == len(hist) {
						hist = append(hist, resid)
					}
					mu.Unlock()
					if i == victim && it >= 2 {
						cancel()
					}
				},
			}
			results[i], errs[i] = sess.SolveWith(nil, opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
	}
	if !errors.Is(results[victim].Err, krylov.ErrCanceled) {
		t.Fatalf("victim Err = %v, want ErrCanceled", results[victim].Err)
	}
	if results[victim].Iterations != 2 {
		t.Errorf("victim Iterations = %d, want 2", results[victim].Iterations)
	}
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		if !results[i].Converged {
			t.Errorf("solve %d: cancel of solve %d leaked (not converged, err %v)",
				i, victim, results[i].Err)
		}
		if len(colls[i].Events()) == 0 {
			t.Errorf("solve %d: per-solve collector recorded nothing", i)
		}
	}
}
