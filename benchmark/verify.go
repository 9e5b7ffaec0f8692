package main

import (
	"fmt"
	"math"
	"sync"

	"parapre/internal/sparse"
)

// relresLimit is the recomputed relative residual above which a timed
// result counts as wrong. The solver stops at 1e-6 on its own estimate;
// the recomputed value may sit slightly above that.
const relresLimit = 1e-5

// csrMul returns A·x with the benchmark's own loop over the CSR arrays,
// so that verification does not lean on the kernels it is timing.
func csrMul(a *sparse.CSR, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		y[i] = s
	}
	return y
}

// relres recomputes ‖b − A·x‖/‖b‖. A wrong-length or non-finite x gives
// +Inf, which fails every limit.
func relres(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	ax := csrMul(a, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	r := math.Sqrt(rr)
	if bb > 0 {
		r /= math.Sqrt(bb)
	}
	if math.IsNaN(r) {
		return math.Inf(1)
	}
	return r
}

// opCounts are the deterministic outputs of one solve: they must repeat
// bit for bit whenever the same operation runs again, traced or not.
type opCounts struct {
	Iterations int
	Restarts   int
	ModelSolve float64 // modeled seconds of the solve (slowest rank's clock)
	ModelSetup float64 // modeled seconds of preconditioner construction
	Msgs       int
	Bytes      int
	Flops      float64
}

func (c *opCounts) add(o opCounts) {
	c.Iterations += o.Iterations
	c.Restarts += o.Restarts
	c.ModelSolve += o.ModelSolve
	c.ModelSetup += o.ModelSetup
	c.Msgs += o.Msgs
	c.Bytes += o.Bytes
	c.Flops += o.Flops
}

// tally counts operations attempted and failed and remembers why, and
// holds the exact-count registry. Safe for the service clients to share.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
	exact     map[string]opCounts
	maxRelres float64
}

func newTally() *tally { return &tally{exact: make(map[string]opCounts)} }

// attempt records one operation; a non-empty reason marks it failed.
func (t *tally) attempt(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason != "" {
		t.failLocked(reason)
	}
}

// violation records a failure that is not a new operation: an accounting
// or exact-count check that did not hold.
func (t *tally) violation(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(reason)
}

func (t *tally) failLocked(reason string) {
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, reason)
	}
}

// checkExact compares the counts of the operation named key with those of
// its first occurrence. The equality is exact on purpose: the library
// promises bit-identical modeled times across repetitions and with or
// without a collector.
func (t *tally) checkExact(key string, c opCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	first, ok := t.exact[key]
	if !ok {
		t.exact[key] = c
		return
	}
	if first != c {
		t.failLocked(fmt.Sprintf("exact counts of %s changed: first %+v, now %+v", key, first, c))
	}
}

func (t *tally) noteRelres(r float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r > t.maxRelres {
		t.maxRelres = r
	}
}

func (t *tally) failedRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
