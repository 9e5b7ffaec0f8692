package core

import (
	"math"
	"testing"

	"parapre/internal/sparse"
)

// fingerprintMatrix is shaped like tc1-poisson2d on a size×size grid
// (seven entries a row).
func fingerprintMatrix(size int) *sparse.CSR {
	const perRow = 7
	n := size * size
	a := sparse.NewCSR(n, n, n*perRow)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			a.ColIdx = append(a.ColIdx, int32((i+k*k)%n))
			a.Val = append(a.Val, float64(i-k))
		}
		a.EndRow(i)
	}
	return a
}

// The edits a caller makes in place are structured, not random: flipped
// signs, a power-of-two scaling, the same bit in many entries. None may
// cancel in the sum — a hash whose high input bits never reach its low
// output bits loses every even number of sign flips with certainty.
func TestFingerprintSeesStructuredEdits(t *testing.T) {
	p := &Problem{A: fingerprintMatrix(10)}
	nnz := len(p.A.Val)
	if nnz%2 != 0 {
		t.Fatalf("nnz = %d: negating all of A needs an even count to be the hard case", nnz)
	}
	check := func(edit func(), format string, args ...any) {
		t.Helper()
		before := p.fingerprint()
		edit()
		if p.fingerprint() == before {
			t.Errorf(format+": fingerprint unchanged", args...)
		}
		edit() // every edit below undoes itself
		if p.fingerprint() != before {
			t.Fatalf(format+": applying it twice did not restore the matrix", args...)
		}
	}
	flipVal := func(k int, bit uint) {
		p.A.Val[k] = math.Float64frombits(math.Float64bits(p.A.Val[k]) ^ 1<<bit)
	}
	pairs := [][2]int{{0, 1}, {nnz - 2, nnz - 1}, {3, nnz / 2}, {0, nnz - 1}, {5, 5 + 64}}
	for bit := uint(0); bit < 64; bit++ {
		for _, kk := range pairs {
			check(func() { flipVal(kk[0], bit); flipVal(kk[1], bit) }, "bit %d of Val[%d] and Val[%d]", bit, kk[0], kk[1])
			if bit < 32 {
				check(func() { p.A.ColIdx[kk[0]] ^= 1 << bit; p.A.ColIdx[kk[1]] ^= 1 << bit }, "bit %d of ColIdx[%d] and ColIdx[%d]", bit, kk[0], kk[1])
			}
		}
		check(func() {
			for k := range p.A.Val {
				flipVal(k, bit)
			}
		}, "bit %d of every Val", bit)
		if last := len(p.A.RowPtr) - 1; bit < 32 {
			check(func() { p.A.RowPtr[1] ^= 1 << bit; p.A.RowPtr[last] ^= 1 << bit }, "bit %d of RowPtr[1] and RowPtr[%d]", bit, last)
		}
	}
	scale := 2.0
	check(func() {
		for k := range p.A.Val {
			p.A.Val[k] *= scale
		}
		scale = 1 / scale
	}, "A scaled by two, then by a half")
}

// BenchmarkLayoutFingerprint times what every set-up pays to verify the
// memo: one pass over RowPtr, ColIdx and Val of a matrix the size of
// tc1-poisson2d@129 (16 641 rows, seven entries a row).
func BenchmarkLayoutFingerprint(b *testing.B) {
	p := &Problem{A: fingerprintMatrix(129)}
	b.SetBytes(int64(8*len(p.A.RowPtr) + 12*len(p.A.ColIdx)))
	b.ResetTimer()
	var sink fingerprint
	for i := 0; i < b.N; i++ {
		sink = p.fingerprint()
	}
	_ = sink
}
