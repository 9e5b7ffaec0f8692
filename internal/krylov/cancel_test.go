package krylov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestGMRESStopCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b, _ := randSystem(rng, 80, 0.05, true)
	x := make([]float64, 80)
	polls := 0
	opt := Options{Restart: 10, MaxIters: 500, Tol: 1e-12, RecordHistory: true,
		Stop: func() bool { polls++; return polls > 4 }}
	res := SolveCSR(a, nil, b, x, opt)
	if !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", res.Err)
	}
	var ce *CanceledError
	if !errors.As(res.Err, &ce) {
		t.Fatalf("Err %T does not unwrap to *CanceledError", res.Err)
	}
	if ce.Method != "GMRES" || ce.Iteration != res.Iterations {
		t.Errorf("CanceledError = %+v, Iterations = %d", ce, res.Iterations)
	}
	if res.Converged || res.Iterations != 4 {
		t.Errorf("stopped after 4 completed iterations, got %+v", res)
	}
	// The iterate must carry the 4 completed columns, not be abandoned.
	for _, v := range x {
		if !finite(v) {
			t.Fatal("canceled iterate is not finite")
		}
	}
	if res.Final <= 0 || !finite(res.Final) {
		t.Errorf("Final = %v, want the running residual estimate", res.Final)
	}
}

func TestGMRESStopBeforeFirstIteration(t *testing.T) {
	a, b, _ := randSystem(rand.New(rand.NewSource(12)), 30, 0.1, false)
	x := make([]float64, 30)
	res := SolveCSR(a, nil, b, x, Options{Restart: 10, MaxIters: 100, Tol: 1e-10,
		Stop: func() bool { return true }})
	if !errors.Is(res.Err, ErrCanceled) || res.Iterations != 0 {
		t.Fatalf("immediate cancel: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x moved on an immediately-canceled solve")
		}
	}
}

func TestCGStopCancels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b, _ := randSystem(rng, 60, 0.05, false) // symmetric, diagonally dominant
	n := 60
	x := make([]float64, n)
	polls := 0
	res := CG(n, func(y, v []float64) { a.MulVecTo(y, v) }, nil, Seq,
		b, x, Options{MaxIters: 500, Tol: 1e-12,
			Stop: func() bool { polls++; return polls > 3 }})
	if !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", res.Err)
	}
	var ce *CanceledError
	if !errors.As(res.Err, &ce) || ce.Method != "CG" {
		t.Fatalf("bad cancel record: %v", res.Err)
	}
	if res.Converged || res.Iterations != 3 {
		t.Errorf("stopped after 3 completed iterations, got %+v", res)
	}
	if res.Final <= 0 || !finite(res.Final) {
		t.Errorf("Final = %v, want last completed residual", res.Final)
	}
}

// A Stop hook that never fires must leave the arithmetic untouched: same
// iterations, bit-identical residual history.
func TestStopNeverFiringIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b, _ := randSystem(rng, 70, 0.08, true)
	run := func(stop func() bool) Result {
		x := make([]float64, 70)
		return SolveCSR(a, nil, b, x, Options{Restart: 15, MaxIters: 300, Tol: 1e-9,
			RecordHistory: true, Stop: stop})
	}
	ref := run(nil)
	polled := run(func() bool { return false })
	if ref.Iterations != polled.Iterations || len(ref.History) != len(polled.History) {
		t.Fatalf("iteration mismatch: %d vs %d", ref.Iterations, polled.Iterations)
	}
	for i := range ref.History {
		if ref.History[i] != polled.History[i] {
			t.Fatalf("history[%d]: %v vs %v", i, ref.History[i], polled.History[i])
		}
	}
}

// Progress must report exactly the values History records, in order.
func TestProgressMirrorsHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b, _ := randSystem(rng, 50, 0.1, true)
	x := make([]float64, 50)
	var iters []int
	var resids []float64
	res := SolveCSR(a, nil, b, x, Options{Restart: 12, MaxIters: 200, Tol: 1e-9,
		RecordHistory: true,
		Progress:      func(it int, r float64) { iters = append(iters, it); resids = append(resids, r) }})
	if len(resids) != len(res.History) {
		t.Fatalf("progress calls %d, history %d", len(resids), len(res.History))
	}
	for i := range resids {
		if resids[i] != res.History[i] {
			t.Fatalf("progress[%d] = %v, history %v", i, resids[i], res.History[i])
		}
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[i-1]+1 {
			t.Fatalf("progress iterations not consecutive: %v", iters)
		}
	}
	if math.IsNaN(res.Final) {
		t.Fatal("NaN final")
	}
}
