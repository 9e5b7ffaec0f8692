package sparse

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"parapre/internal/par"
)

// The fuzzers decode raw bytes into small integer-valued matrices. With
// every value an integer of magnitude ≤ 127 and at most a few thousand
// terms, all sums fit float64 exactly, so reference comparisons below are
// bitwise — no tolerance hides a real bug, and no summation-order
// difference produces a false alarm.

// fuzzDims caps fuzzed shapes: big enough to cross row-partition edges,
// small enough that the dense reference stays cheap.
const fuzzMaxDim = 16

// decodeTriplets interprets data as (rows, cols, triplet stream) and
// returns the shape plus the triplet list. Every triplet is reduced into
// range, so any byte stream decodes to a well-formed input.
func decodeTriplets(data []byte) (rows, cols int, trip [][3]int) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	rows = int(data[0])%fuzzMaxDim + 1
	cols = int(data[1])%fuzzMaxDim + 1
	for k := 2; k+2 < len(data); k += 3 {
		i := int(data[k]) % rows
		j := int(data[k+1]) % cols
		v := int(int8(data[k+2]))
		trip = append(trip, [3]int{i, j, v})
	}
	return rows, cols, trip
}

// denseOf accumulates triplets into a dense reference, mirroring COO.Add
// semantics (duplicates sum).
func denseOf(rows, cols int, trip [][3]int) []float64 {
	d := make([]float64, rows*cols)
	for _, t := range trip {
		d[t[0]*cols+t[1]] += float64(t[2])
	}
	return d
}

// FuzzToCSR checks that COO→CSR conversion yields a structurally valid
// matrix that agrees entry-for-entry with a dense accumulation, for
// arbitrary (including duplicate-heavy and empty) triplet streams.
func FuzzToCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 1, 0, 0, 2, 2, 2, 255, 1, 2, 128})
	f.Add([]byte{1, 16, 0, 15, 7, 0, 0, 7, 0, 15, 249})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, trip := decodeTriplets(data)
		coo := NewCOO(rows, cols, len(trip))
		for _, tr := range trip {
			coo.Add(tr[0], tr[1], float64(tr[2]))
		}
		a := coo.ToCSR()
		if err := a.CheckValid(); err != nil {
			t.Fatalf("ToCSR produced invalid CSR: %v", err)
		}
		if a.Rows != rows || a.Cols != cols {
			t.Fatalf("shape mangled: got %d×%d want %d×%d", a.Rows, a.Cols, rows, cols)
		}
		want := denseOf(rows, cols, trip)
		got := make([]float64, rows*cols)
		for i := 0; i < rows; i++ {
			cs, vs := a.Row(i)
			for k, j := range cs {
				got[i*cols+int(j)] += vs[k]
			}
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("entry (%d,%d): got %g want %g", p/cols, p%cols, got[p], want[p])
			}
		}
	})
}

// FuzzSortRows checks that sorting is a pure per-row permutation: columns
// come out nondecreasing and each row keeps exactly its multiset of
// (column, value) pairs. The raw CSR is built by hand with deliberately
// unsorted, duplicate-carrying rows — the state SortRows exists to repair.
func FuzzSortRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 8, 3, 2, 1, 0, 7, 3, 2, 9, 2, 9, 0, 1, 5, 200})
	f.Add([]byte{2, 4, 6, 6, 3, 1, 3, 2, 3, 3, 1, 1, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows := int(data[0])%8 + 1
		cols := int(data[1])%fuzzMaxDim + 1
		a := NewCSR(rows, cols, 0)
		k := 2
		for i := 0; i < rows; i++ {
			// One count byte per row, then that many (col, val) pairs —
			// as many as the stream still holds.
			n := 0
			if k < len(data) {
				n = int(data[k]) % 40
				k++
			}
			for e := 0; e < n && k+1 < len(data); e++ {
				a.ColIdx = append(a.ColIdx, int32(int(data[k])%cols))
				a.Val = append(a.Val, float64(int8(data[k+1])))
				k += 2
			}
			a.EndRow(i)
		}

		type pair struct {
			col int32
			val float64
		}
		want := make([][]pair, rows)
		for i := 0; i < rows; i++ {
			cs, vs := a.Row(i)
			for e, j := range cs {
				want[i] = append(want[i], pair{j, vs[e]})
			}
		}

		a.SortRows()

		for i := 0; i < rows; i++ {
			cs, vs := a.Row(i)
			if len(cs) != len(want[i]) {
				t.Fatalf("row %d changed length: %d → %d", i, len(want[i]), len(cs))
			}
			got := make([]pair, len(cs))
			for e, j := range cs {
				if e > 0 && cs[e-1] > j {
					t.Fatalf("row %d not sorted after SortRows: %v", i, cs)
				}
				got[e] = pair{j, vs[e]}
			}
			less := func(p []pair) func(x, y int) bool {
				return func(x, y int) bool {
					if p[x].col != p[y].col {
						return p[x].col < p[y].col
					}
					return p[x].val < p[y].val
				}
			}
			sort.Slice(got, less(got))
			sort.Slice(want[i], less(want[i]))
			for e := range got {
				if got[e] != want[i][e] {
					t.Fatalf("row %d entry multiset changed: got %v want %v", i, got, want[i])
				}
			}
		}
	})
}

// FuzzMulVec checks the CSR matrix-vector kernels against a dense
// reference on arbitrary matrices and vectors, and MulVec against
// MulVecTo (allocating and in-place paths must agree bit-for-bit).
func FuzzMulVec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 2, 1, 1, 3, 2, 2, 5, 0, 2, 255, 1, 2, 3})
	f.Add([]byte{8, 1, 0, 0, 1, 3, 0, 2, 7, 0, 130, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, trip := decodeTriplets(data)
		// Steal trailing bytes for the vector; triplets and vector may
		// overlap — both decoders are total, so sharing bytes is fine.
		x := make([]float64, cols)
		for i := range x {
			if i < len(data) {
				x[i] = float64(int8(data[len(data)-1-i]))
			} else {
				x[i] = 1
			}
		}
		coo := NewCOO(rows, cols, len(trip))
		for _, tr := range trip {
			coo.Add(tr[0], tr[1], float64(tr[2]))
		}
		a := coo.ToCSR()

		d := denseOf(rows, cols, trip)
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += d[i*cols+j] * x[j]
			}
			want[i] = s
		}

		got := a.MulVec(x)
		if len(got) != rows {
			t.Fatalf("MulVec returned length %d, want %d", len(got), rows)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MulVec[%d]: got %g want %g", i, got[i], want[i])
			}
		}
		y := make([]float64, rows)
		a.MulVecTo(y, x)
		for i := range y {
			if y[i] != got[i] {
				t.Fatalf("MulVecTo disagrees with MulVec at %d: %g vs %g", i, y[i], got[i])
			}
		}
	})
}

// FuzzAxpyDot checks the fused update + inner product against Axpy
// followed by Dot, bit for bit, on arbitrary float64 bit patterns
// (subnormals, infinities and NaNs included) laid out across a
// reduction-block boundary, with z separate and z aliasing y.
func FuzzAxpyDot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x3f, 0xe8, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xbf, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The first word is the scalar; the rest is cycled through the
		// three vectors so a short input still fills two blocks.
		word := func(k int) float64 {
			if len(data) < 8 {
				return float64(k%7) - 3
			}
			off := (8 * k) % (len(data) - 7)
			return math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		}
		n := par.BlockSize + 1 + len(data)%64
		a := word(0)
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i], z[i] = word(3*i+1), word(3*i+2), word(3*i+3)
		}
		checkAxpyDot(t, sameFloat, a, x, y, z, false)
		checkAxpyDot(t, sameFloat, a, x, y, nil, true)
	})
}

// sameFloat is bit equality, except that any two NaNs are equal: which of
// two NaN operands an addition or multiplication propagates depends on
// the register the compiler put each in, so the payload of a NaN result
// is not part of any kernel's contract.
func sameFloat(a, b float64) bool {
	return sameBits(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}
