package fem

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"parapre/internal/grid"
	"parapre/internal/par"
	"parapre/internal/sparse"
)

func withWorkers(w int, fn func()) {
	prev := par.SetWorkers(w)
	defer par.SetWorkers(prev)
	fn()
}

// testPDE exercises every assembly branch at once: variable diffusion,
// convection, SUPG, and a source term.
func testPDE() ScalarPDE {
	return ScalarPDE{
		Diffusion:   1,
		DiffusionFn: func(x []float64) float64 { return 1 + 10*x[0] + x[1]*x[1] },
		Velocity:    []float64{20, -7},
		Source:      func(x []float64) float64 { return math.Sin(3*x[0]) * math.Cos(x[1]) },
		SUPG:        true,
	}
}

func eqSystem(t *testing.T, w int, a, ref *sparse.CSR, b, refb []float64) {
	t.Helper()
	if !a.Equal(ref) {
		t.Fatalf("w=%d: assembled matrix differs from serial", w)
	}
	for i := range refb {
		if b[i] != refb[i] {
			t.Fatalf("w=%d: rhs[%d] = %x, want %x", w, i, b[i], refb[i])
		}
	}
}

// TestAssembleScalarBitIdenticalAcrossWorkers: the chunked element loop
// with per-worker triplet buffers must reproduce the serial assembly
// exactly, for every worker count.
func TestAssembleScalarBitIdenticalAcrossWorkers(t *testing.T) {
	m := grid.UnitSquareTri(40) // 3200 elements > femParMinElems
	if m.NumElems() < femParMinElems {
		t.Fatalf("mesh too small (%d elems) to engage the parallel path", m.NumElems())
	}
	pde := testPDE()
	var refA *sparse.CSR
	var refB []float64
	withWorkers(1, func() { refA, refB = AssembleScalar(m, pde) })
	for _, w := range []int{2, 3, 8} {
		withWorkers(w, func() {
			a, b := AssembleScalar(m, pde)
			eqSystem(t, w, a, refA, b, refB)
		})
	}
}

func TestAssembleMassBitIdenticalAcrossWorkers(t *testing.T) {
	m := grid.UnitSquareTri(40)
	var ref *sparse.CSR
	withWorkers(1, func() { ref = AssembleMass(m) })
	for _, w := range []int{2, 3, 8} {
		withWorkers(w, func() {
			if a := AssembleMass(m); !a.Equal(ref) {
				t.Fatalf("w=%d: mass matrix differs from serial", w)
			}
		})
	}
}

func TestAssembleElasticityBitIdenticalAcrossWorkers(t *testing.T) {
	m := grid.UnitSquareTri(40)
	f := func(x []float64) (float64, float64) { return x[0] * x[1], -x[0] }
	var refA *sparse.CSR
	var refB []float64
	withWorkers(1, func() { refA, refB = AssembleElasticity(m, 1, 2.5, f) })
	for _, w := range []int{2, 3, 8} {
		withWorkers(w, func() {
			a, b := AssembleElasticity(m, 1, 2.5, f)
			eqSystem(t, w, a, refA, b, refB)
		})
	}
}

// BenchmarkAssemblySerialVsParallel measures wall-clock assembly time of
// the full SUPG scalar system on a 128×128 unit-square mesh (32 768
// elements), serial versus the full worker pool.
func BenchmarkAssemblySerialVsParallel(b *testing.B) {
	m := grid.UnitSquareTri(128)
	pde := testPDE()
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, _ := AssembleScalar(m, pde)
				_ = a
			}
			b.ReportMetric(float64(m.NumElems())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
		})
	}
}

// TestSinkCapacityExact pins the per-element counts that size a sink: after
// the kernel has run over every element, each buffer is exactly full, so
// assembly never regrows one (regrowing the triplet buffers was a third of
// a conv-diff assembly).
func TestSinkCapacityExact(t *testing.T) {
	src := func(x []float64) float64 { return 1 + x[0] }
	vel := []float64{3, 4}
	pdes := map[string]ScalarPDE{
		"diffusion":        {Diffusion: 1},
		"diffusion+source": {Diffusion: 1, Source: src},
		"convection":       {Diffusion: 1, Velocity: vel, Source: src},
		"supg":             {Diffusion: 1, Velocity: vel, SUPG: true, Source: src},
		"supg, no source":  {Diffusion: 1, Velocity: vel, SUPG: true},
		"supg, no flow":    {Diffusion: 1, SUPG: true, Source: src},
	}
	m := grid.UnitSquareTri(7)
	for name, pde := range pdes {
		nnzCap, rhsCap := pde.perElemCounts(m.NPE)
		s := newSink(m, m.NumNodes(), m.NumElems(), nnzCap, rhsCap)
		kernel := scalarKernel(m, pde)
		for e := 0; e < m.NumElems(); e++ {
			kernel(e, s)
		}
		if s.coo.Len() != cap(s.coo.V) || s.coo.Len() != m.NumElems()*nnzCap {
			t.Errorf("%s: %d triplets in a buffer of %d", name, s.coo.Len(), cap(s.coo.V))
		}
		if len(s.rhsV) != cap(s.rhsV) || len(s.rhsV) != m.NumElems()*rhsCap {
			t.Errorf("%s: %d load entries in a buffer of %d", name, len(s.rhsV), cap(s.rhsV))
		}
	}
}
