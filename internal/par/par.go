// Package par is the shared-memory execution layer under every hot kernel
// in this repository. The distributed layer (package dist) models the
// paper's message-passing parallelism with goroutine "ranks" and a virtual
// clock; package par is orthogonal to it and real: it spreads the actual
// CPU work of a kernel — SpMV rows, vector blocks, finite elements,
// per-subdomain factorizations — across OS threads, the way MiniFE layers
// OpenMP inside an MPI decomposition.
//
// The worker count defaults to GOMAXPROCS, can be pinned with the
// PARAPRE_WORKERS environment variable, and can be changed at runtime with
// SetWorkers. One worker means every helper runs inline with zero
// goroutine overhead, so the serial fallback is the code path itself.
//
// Determinism contract: helpers that only partition exact elementwise work
// (For, ForSegments, Run) produce results independent of the worker count
// trivially. For floating-point reductions, SumBlocks fixes the block
// boundaries as a function of the problem size alone — never the worker
// count — and combines the per-block partial sums in ascending block
// order, so a reduction yields bit-identical results at 1 worker and at N.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"parapre/internal/paranoid"
)

// EnvWorkers is the environment variable that pins the worker count.
const EnvWorkers = "PARAPRE_WORKERS"

var workers atomic.Int32

func init() {
	workers.Store(int32(workersFromEnv(os.Getenv, runtime.GOMAXPROCS(0))))
}

// workersFromEnv resolves the initial worker count from the environment,
// falling back to def (normally GOMAXPROCS). Non-numeric or non-positive
// values are ignored.
func workersFromEnv(getenv func(string) string, def int) int {
	if s := getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	if def < 1 {
		def = 1
	}
	return def
}

// Workers returns the current worker count (always ≥ 1).
func Workers() int { return int(workers.Load()) }

// HaveParallelism reports whether fanning work out to goroutines can run
// on more than one CPU at all. On a single-P process (GOMAXPROCS=1) every
// parallel region would just time-slice one core while paying the spawn
// and synchronization overhead, so the helpers below stay inline there —
// an adaptive fallback, not a semantic switch: all helpers produce
// bit-identical results at any worker count by construction.
func HaveParallelism() bool { return runtime.GOMAXPROCS(0) > 1 }

// Serial reports whether parallel regions currently run inline on the
// calling goroutine: one worker, or a single-P process.
func Serial() bool { return Workers() == 1 || !HaveParallelism() }

// SetWorkers sets the worker count for all subsequent parallel regions and
// returns the previous value. Counts below 1 are clamped to 1 (serial).
// It is safe to call concurrently; in-flight regions keep the count they
// started with.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int32(n)))
}

// For runs body over the index range [0, n) split into at most Workers()
// contiguous chunks of at least grain indices each. The calling goroutine
// executes the first chunk itself, so a serial configuration adds no
// overhead. body must be safe to run concurrently on disjoint ranges.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if maxW := (n + grain - 1) / grain; w > maxW {
		w = maxW
	}
	if w <= 1 || !HaveParallelism() {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for c := 1; c < w; c++ {
		lo, hi := c*n/w, (c+1)*n/w
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	body(0, n/w)
	wg.Wait()
}

// ForSegments runs body once per segment [bounds[s], bounds[s+1]), all
// segments concurrently (the first on the calling goroutine). bounds must
// be non-decreasing; empty segments are skipped. It is the runner for
// precomputed load-balanced partitions such as the nnz-balanced row
// partition of sparse.CSR.
func ForSegments(bounds []int, body func(lo, hi int)) {
	segs := len(bounds) - 1
	if segs <= 0 {
		return
	}
	if paranoid.Enabled {
		for s := 0; s < segs; s++ {
			paranoid.Check(bounds[s] <= bounds[s+1],
				"par: ForSegments bounds not non-decreasing at %d: %d > %d", s, bounds[s], bounds[s+1])
		}
	}
	if segs == 1 || !HaveParallelism() {
		for s := 0; s < segs; s++ {
			if bounds[s] < bounds[s+1] {
				body(bounds[s], bounds[s+1])
			}
		}
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < segs; s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	if bounds[0] < bounds[1] {
		body(bounds[0], bounds[1])
	}
	wg.Wait()
}

// Run invokes body(t) for every task t in [0, tasks), distributing tasks
// dynamically over min(Workers(), tasks) goroutines. Unlike For it does
// not assume uniform task cost — it is meant for coarse independent jobs
// such as per-subdomain ILU/ARMS factorizations, whose sizes are skewed by
// the partitioner.
func Run(tasks int, body func(t int)) {
	if tasks <= 0 {
		return
	}
	w := Workers()
	if w > tasks {
		w = tasks
	}
	if w <= 1 || !HaveParallelism() {
		for t := 0; t < tasks; t++ {
			body(t)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			body(t)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// BlockSize is the fixed width of reduction blocks. It depends on nothing:
// not the worker count, not the machine. That invariance is what makes the
// blocked reductions deterministic — see SumBlocks.
const BlockSize = 4096

// NumBlocks returns the number of fixed-size reduction blocks covering
// [0, n).
func NumBlocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BlockSize - 1) / BlockSize
}

// SumBlocks computes Σ_b block(lo_b, hi_b) over the fixed-size blocks of
// [0, n), evaluating blocks in parallel and combining the per-block
// partial sums serially in ascending block order. Because the block
// boundaries depend only on n and the combination order is fixed, the
// result is bit-identical for every worker count — the deterministic
// reduction that keeps Krylov iteration counts and residual histories
// independent of the parallel configuration.
func SumBlocks(n int, block func(lo, hi int) float64) float64 {
	nb := NumBlocks(n)
	switch nb {
	case 0:
		return 0
	case 1:
		return block(0, n)
	}
	if Serial() {
		var s float64
		for b := 0; b < nb; b++ {
			lo := b * BlockSize
			hi := lo + BlockSize
			if hi > n {
				hi = n
			}
			s += block(lo, hi)
		}
		return s
	}
	partials := make([]float64, nb)
	For(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * BlockSize
			hi := lo + BlockSize
			if hi > n {
				hi = n
			}
			partials[b] = block(lo, hi)
		}
	})
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}
