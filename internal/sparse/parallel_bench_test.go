package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"parapre/internal/par"
)

// poisson2D builds the 5-point finite-difference Laplacian on an m×m grid
// — the matrix of the paper's Test Case 1 at m = 129 (N = 16 641,
// nnz ≈ 83 000).
func poisson2D(m int) *CSR {
	n := m * m
	coo := NewCOO(n, n, 5*n)
	id := func(i, j int) int { return j*m + i }
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			r := id(i, j)
			coo.Add(r, r, 4)
			if i > 0 {
				coo.Add(r, id(i-1, j), -1)
			}
			if i < m-1 {
				coo.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(r, id(i, j-1), -1)
			}
			if j < m-1 {
				coo.Add(r, id(i, j+1), -1)
			}
		}
	}
	return coo.ToCSR()
}

// BenchmarkSpMVSerialVsParallel measures real wall-clock time of the SpMV
// kernel on the 129² Poisson matrix, serial (1 worker) versus the full
// worker pool. On a ≥4-core machine the parallel sub-benchmark should run
// ≥2× faster per op; on a single-core machine the two coincide.
func BenchmarkSpMVSerialVsParallel(b *testing.B) {
	a := poisson2D(129)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 + float64(i%13)
	}
	y := make([]float64, a.Rows)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			a.rowPartition(w) // pre-warm the cached partition
			b.SetBytes(int64(8 * (a.NNZ() + a.Rows + a.Cols)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MulVecTo(y, x)
			}
			b.ReportMetric(2*float64(a.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
		})
	}
}

// BenchmarkDotSerialVsParallel: the deterministic blocked inner product at
// 1 worker and at GOMAXPROCS.
func BenchmarkDotSerialVsParallel(b *testing.B) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(x, y)
			}
			_ = s
		})
	}
}

// BenchmarkSortRows: the allocation-free row sorter on FEM-like short
// rows (the satellite optimization — previously one sort.Sort interface
// allocation per row).
func BenchmarkSortRows(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const rows, perRow = 10000, 7
	proto := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		seen := map[int]bool{}
		for len(seen) < perRow {
			c := rng.Intn(rows)
			if !seen[c] {
				seen[c] = true
				proto.ColIdx = append(proto.ColIdx, int32(c))
				proto.Val = append(proto.Val, rng.NormFloat64())
			}
		}
		proto.EndRow(i)
	}
	shuffled := append([]int32(nil), proto.ColIdx...)
	vals := append([]float64(nil), proto.Val...)
	a := &CSR{Rows: rows, Cols: rows, RowPtr: proto.RowPtr, ColIdx: make([]int32, len(shuffled)), Val: make([]float64, len(vals))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(a.ColIdx, shuffled)
		copy(a.Val, vals)
		b.StartTimer()
		a.SortRows()
	}
}
