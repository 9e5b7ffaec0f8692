package core_test

import (
	"math"
	"runtime"
	"testing"

	"parapre/internal/core"
	"parapre/internal/par"
	"parapre/internal/precond"
)

// What a session keeps is what it uses: over everything Bytes reaches, the
// capacity no length covers stays under one percent. An assembled matrix
// that pins its triplet count (2.5 to 7.7 times its entries, the serial
// COO.ToCSR before it copied out at exact length) fails every row.
func TestSessionHoldsNoSlack(t *testing.T) {
	// One worker, as in a one-core container: every conversion is serial.
	defer par.SetWorkers(par.SetWorkers(1))
	for _, pr := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 33}, {"tc2-poisson3d", 9}, {"tc5-convdiff", 33}, {"tc6-elasticity", 17}} {
		for _, kind := range []precond.Kind{precond.KindBlock1, precond.KindBlock2, precond.KindSchur1, precond.KindSchur2} {
			sess, err := core.NewSession(buildProblem(t, pr.name, pr.size), core.DefaultConfig(4, kind))
			if err != nil {
				t.Fatalf("%s %s: %v", pr.name, kind, err)
			}
			// One solve first: the scratch it grows is held from then on.
			if _, err := sess.Solve(nil); err != nil {
				t.Fatalf("%s %s: %v", pr.name, kind, err)
			}
			held, used := sess.Footprint()
			if slack := held - used; slack*100 > held {
				t.Errorf("%s %s: %d of %d bytes held are spare capacity (%.1f %%), want at most 1 %%",
					pr.name, kind, slack, held, 100*float64(slack)/float64(held))
			}
		}
	}
}

// liveHeap is HeapAlloc with nothing collectable left: the second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// Bytes is held to the allocator's own account for every preconditioner a
// session can be built with: a problem and its session built alone raise
// the live heap by what Bytes says, within a tenth (size classes, closures'
// captured scratch). A family that keeps its factors where the walk cannot
// reach — behind a func value — under-counts by more and fails here.
func TestSessionBytesMatchesHeap(t *testing.T) {
	const size = 65
	for _, tc := range sessionConfigs(size) {
		cfg := tc.config(4)
		before := liveHeap()
		sess, err := core.NewSession(buildProblem(t, "tc1-poisson2d", size), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := sess.Solve(nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		heap := liveHeap() - before
		got := sess.Bytes()
		ab, mesh, layout, pcs := sess.Components()
		t.Logf("%-15s Bytes() %8d  heap %8d  %+.1f %%  %4.0f B/unknown  (A and b %d, mesh %d, layout %d, preconditioner %d)",
			tc.name, got, heap, 100*float64(got-heap)/float64(heap), float64(got)/(size*size), ab, mesh, layout, pcs)
		if math.Abs(float64(got-heap)) > 0.10*float64(heap) {
			t.Errorf("%s: Bytes() = %d, the live heap grew by %d (%+.1f %%)",
				tc.name, got, heap, 100*float64(got-heap)/float64(heap))
		}
		runtime.KeepAlive(sess)
	}
}

// What a session holds does not depend on the worker count it was built
// and solved under: nothing worker-dependent is kept beside a factor (the
// row-partition caches are tens of bytes per matrix). A per-factor schedule
// built only when Workers() > 1 — the level sets of the removed scheduled
// sweeps, +0.9 to +4.1 % here — fails every row on a host with two CPUs.
func TestSessionBytesIndependentOfWorkers(t *testing.T) {
	bytesAt := func(workers int, kind precond.Kind) int64 {
		defer par.SetWorkers(par.SetWorkers(workers))
		sess, err := core.NewSession(buildProblem(t, "tc1-poisson2d", 129), core.DefaultConfig(4, kind))
		if err != nil {
			t.Fatalf("%s at %d workers: %v", kind, workers, err)
		}
		if _, err := sess.Solve(nil); err != nil {
			t.Fatalf("%s at %d workers: %v", kind, workers, err)
		}
		return sess.Bytes()
	}
	for _, kind := range []precond.Kind{precond.KindBlock1, precond.KindBlock2, precond.KindSchur1, precond.KindSchur2} {
		one, two := bytesAt(1, kind), bytesAt(2, kind)
		if diff := math.Abs(float64(two - one)); diff > 0.001*float64(one) {
			t.Errorf("%s: Bytes() = %d at one worker, %d at two (%+.2f %%), want within 0.1 %%",
				kind, one, two, 100*float64(two-one)/float64(one))
		}
	}
}
