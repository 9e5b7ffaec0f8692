package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"parapre/internal/par"
)

// withWorkers pins the par worker count for the duration of fn.
func withWorkers(w int, fn func()) {
	prev := par.SetWorkers(w)
	defer par.SetWorkers(prev)
	fn()
}

// randCSRLarge builds a random n×n matrix with about nnzPerRow stored
// entries per row — large enough to cross every parallel threshold.
func randCSRLarge(rng *rand.Rand, n, nnzPerRow int) *CSR {
	coo := NewCOO(n, n, n*(nnzPerRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	// A few very long rows so the nnz-balanced partition actually matters.
	for k := 0; k < n/2; k++ {
		coo.Add(0, rng.Intn(n), rng.NormFloat64())
		coo.Add(n-1, rng.Intn(n), rng.NormFloat64())
	}
	return coo.ToCSR()
}

// randVecMixed draws entries spanning many magnitudes, so reductions are
// rounding-sensitive and ordering bugs cannot hide.
func randVecMixed(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	return x
}

var workerSweep = []int{1, 2, 3, 8}

// TestSpMVBitIdenticalAcrossWorkers is the tentpole equivalence property:
// the three matrix-vector kernels produce bit-identical vectors at every
// worker count, including the skewed-row partitions.
func TestSpMVBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSRLarge(rng, 3000, 8)
	if a.NNZ() < ParMinNNZ {
		t.Fatalf("test matrix too small (nnz=%d) to engage the parallel path", a.NNZ())
	}
	x := randVecMixed(rng, a.Cols)
	y0 := randVecMixed(rng, a.Rows)

	type out struct{ to, add, sub []float64 }
	run := func() out {
		var o out
		o.to = make([]float64, a.Rows)
		a.MulVecTo(o.to, x)
		o.add = append([]float64(nil), y0...)
		a.MulVecAdd(o.add, 1.37, x)
		o.sub = append([]float64(nil), y0...)
		a.MulVecSub(o.sub, x)
		return o
	}
	var ref out
	withWorkers(1, func() { ref = run() })
	for _, w := range workerSweep[1:] {
		withWorkers(w, func() {
			got := run()
			for i := range ref.to {
				if got.to[i] != ref.to[i] {
					t.Fatalf("w=%d: MulVecTo[%d] = %x, want %x", w, i, got.to[i], ref.to[i])
				}
				if got.add[i] != ref.add[i] {
					t.Fatalf("w=%d: MulVecAdd[%d] = %x, want %x", w, i, got.add[i], ref.add[i])
				}
				if got.sub[i] != ref.sub[i] {
					t.Fatalf("w=%d: MulVecSub[%d] = %x, want %x", w, i, got.sub[i], ref.sub[i])
				}
			}
		})
	}
}

// TestReductionsBitIdenticalAcrossWorkers checks the deterministic blocked
// reductions and the elementwise kernels on vectors long enough to engage
// every parallel path.
func TestReductionsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 5*par.BlockSize + 137
	x := randVecMixed(rng, n)
	y := randVecMixed(rng, n)

	type out struct {
		dot, n2     float64
		axpy, scale []float64
	}
	run := func() out {
		var o out
		o.dot = Dot(x, y)
		o.n2 = Norm2(x)
		o.axpy = append([]float64(nil), y...)
		Axpy(-0.73, x, o.axpy)
		o.scale = make([]float64, n)
		ScaleTo(o.scale, 1/3.0, x)
		return o
	}
	var ref out
	withWorkers(1, func() { ref = run() })
	for _, w := range workerSweep[1:] {
		withWorkers(w, func() {
			got := run()
			if got.dot != ref.dot || got.n2 != ref.n2 {
				t.Fatalf("w=%d: reductions differ: dot %x/%x n2 %x/%x",
					w, got.dot, ref.dot, got.n2, ref.n2)
			}
			for i := range ref.axpy {
				if got.axpy[i] != ref.axpy[i] || got.scale[i] != ref.scale[i] {
					t.Fatalf("w=%d: elementwise kernel differs at %d", w, i)
				}
			}
		})
	}
}

// TestDotShortVectorKeepsSerialOrder pins the compatibility guarantee:
// vectors no longer than one reduction block accumulate exactly like the
// historical serial kernel.
func TestDotShortVectorKeepsSerialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, par.BlockSize)
	y := randVec(rng, par.BlockSize)
	var want float64
	for i, v := range x {
		want += v * y[i]
	}
	for _, w := range workerSweep {
		withWorkers(w, func() {
			if got := Dot(x, y); got != want {
				t.Fatalf("w=%d: short Dot = %x, want serial %x", w, got, want)
			}
		})
	}
}

// TestToCSRBitIdenticalAcrossWorkers: duplicate-heavy COO conversion must
// not depend on the worker count.
func TestToCSRBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 400
	coo := NewCOO(n, n, 24*n)
	for k := 0; k < 24*n; k++ {
		coo.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	if coo.Len() < cooParMinTriplets {
		t.Fatalf("COO too small (%d) to engage the parallel path", coo.Len())
	}
	var ref *CSR
	withWorkers(1, func() { ref = coo.ToCSR() })
	if err := ref.CheckValid(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep[1:] {
		withWorkers(w, func() {
			got := coo.ToCSR()
			if err := got.CheckValid(); err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("w=%d: parallel ToCSR differs from serial", w)
			}
		})
	}
}

// TestMulVecAddSubDimensionGuards: the two kernels that used to read out
// of bounds (or silently truncate) now panic like MulVecTo.
func TestMulVecAddSubDimensionGuards(t *testing.T) {
	a := Identity(4)
	short := make([]float64, 3)
	full := make([]float64, 4)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on short input", name)
			}
		}()
		fn()
	}
	mustPanic("MulVecAdd short x", func() { a.MulVecAdd(full, 1, short) })
	mustPanic("MulVecAdd short y", func() { a.MulVecAdd(short, 1, full) })
	mustPanic("MulVecSub short x", func() { a.MulVecSub(full, short) })
	mustPanic("MulVecSub short y", func() { a.MulVecSub(short, full) })
}

// TestRowPartition checks the nnz-balanced boundaries: full coverage,
// monotone, cached, and invalidated by structural growth.
func TestRowPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSRLarge(rng, 500, 6)
	for _, segs := range []int{1, 2, 3, 7} {
		b := a.rowPartition(segs)
		if len(b) != segs+1 || b[0] != 0 || b[segs] != a.Rows {
			t.Fatalf("segs=%d: bad bounds %v", segs, b)
		}
		for s := 0; s < segs; s++ {
			if b[s] > b[s+1] {
				t.Fatalf("segs=%d: bounds not monotone: %v", segs, b)
			}
			// Segment s starts at the first row with s·nnz/segs entries
			// before it.
			want := sort.Search(len(a.RowPtr), func(k int) bool { return int(a.RowPtr[k]) >= s*a.NNZ()/segs })
			if b[s] != want {
				t.Fatalf("segs=%d: segment %d starts at row %d, want %d", segs, s, b[s], want)
			}
		}
	}
	// Cache hit: same slice back for unchanged shape.
	b1 := a.rowPartition(4)
	b2 := a.rowPartition(4)
	if &b1[0] != &b2[0] {
		t.Fatal("partition not cached across identical calls")
	}
	// Structural change (extra stored entry in the last row) invalidates
	// the cache.
	a.RowPtr[a.Rows]++
	a.ColIdx = append(a.ColIdx, int32(a.Cols-1))
	a.Val = append(a.Val, 1.0)
	b3 := a.rowPartition(4)
	if &b3[0] == &b1[0] {
		t.Fatal("partition cache not invalidated by structural change")
	}
	if b3[0] != 0 || b3[4] != a.Rows {
		t.Fatalf("recomputed bounds invalid: %v", b3)
	}
}

// TestSortRowsMatchesReference sorts every row of a hand-built matrix with
// SortRow, long rows and short ones, empty and single-entry rows too.
func TestSortRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rowLens := []int{96, 1, 0, 7, 32}
	a := &CSR{Rows: len(rowLens), Cols: 1000, RowPtr: make([]int32, len(rowLens)+1)}
	type pair struct {
		c int
		v float64
	}
	want := make([][]pair, len(rowLens))
	for i, ln := range rowLens {
		seen := map[int]bool{}
		var ps []pair
		for len(ps) < ln {
			c := rng.Intn(1000)
			if seen[c] {
				continue
			}
			seen[c] = true
			ps = append(ps, pair{c, rng.NormFloat64()})
		}
		for _, p := range ps {
			a.ColIdx = append(a.ColIdx, int32(p.c))
			a.Val = append(a.Val, p.v)
		}
		a.EndRow(i)
		sorted := append([]pair(nil), ps...)
		for x := 1; x < len(sorted); x++ {
			for y := x; y > 0 && sorted[y-1].c > sorted[y].c; y-- {
				sorted[y-1], sorted[y] = sorted[y], sorted[y-1]
			}
		}
		want[i] = sorted
	}
	sortRows(a)
	if err := a.CheckValid(); err != nil {
		t.Fatal(err)
	}
	for i := range rowLens {
		cols, vals := a.Row(i)
		for k, p := range want[i] {
			if int(cols[k]) != p.c || vals[k] != p.v {
				t.Fatalf("row %d entry %d: got (%d,%g), want (%d,%g)", i, k, cols[k], vals[k], p.c, p.v)
			}
		}
	}
}

// TestToCSRExactCapacity: what ToCSR returns holds its entries and nothing
// more, on the serial path as on the parallel one, whatever the ratio of
// triplets to merged entries; the two stay bit-equal, the triplets are left
// as they were, and scratch recycled from a larger conversion does not leak
// into a smaller one.
func TestToCSRExactCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		n, triplets, span int // span: the columns a row's triplets fall on
	}{
		{400, 24 * 400, 400}, // few duplicates, above the parallel threshold
		{300, 60 * 300, 7},   // finite-element-like: eight or nine triplets per entry
		{50, 400, 5},         // below the threshold: serial at every worker count
		{10, 0, 1},           // no triplets at all
	} {
		coo := NewCOO(tc.n, tc.n, tc.triplets)
		for k := 0; k < tc.triplets; k++ {
			i := rng.Intn(tc.n - tc.n/10) // the last tenth of the rows stays empty
			coo.Add(i, (i+rng.Intn(tc.span))%tc.n, rng.NormFloat64())
		}
		is, js, vs := append([]int(nil), coo.I...), append([]int(nil), coo.J...), append([]float64(nil), coo.V...)
		var ref *CSR
		for _, w := range workerSweep {
			withWorkers(w, func() {
				got := coo.ToCSR()
				if err := got.CheckValid(); err != nil {
					t.Fatalf("n=%d w=%d: %v", tc.n, w, err)
				}
				if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) || cap(got.RowPtr) != len(got.RowPtr) {
					t.Errorf("n=%d w=%d: %d entries of %d triplets held in capacity %d (ColIdx) and %d (Val)",
						tc.n, w, got.NNZ(), tc.triplets, cap(got.ColIdx), cap(got.Val))
				}
				if ref == nil {
					ref = got
				} else if !got.Equal(ref) {
					t.Errorf("n=%d w=%d: differs from the serial conversion", tc.n, w)
				}
			})
		}
		for k := range is {
			if coo.I[k] != is[k] || coo.J[k] != js[k] || coo.V[k] != vs[k] {
				t.Fatalf("n=%d: ToCSR changed triplet %d", tc.n, k)
			}
		}
	}
}
