package sparse

import (
	"math/rand"
	"testing"

	"parapre/internal/par"
)

// blockCSR builds an nb×nb block-sparse matrix with dense r×r blocks — the
// vector-FEM pattern (kron(G, ones(r,r)) with a full block diagonal) whose
// in-block fill is exactly 1, so the auto-router accepts it.
func blockCSR(rng *rand.Rand, nb, r int, density float64) *CSR {
	n := nb * r
	coo := NewCOO(n, n, nb*r*r*4)
	addBlock := func(bi, bj int) {
		for a := 0; a < r; a++ {
			for b := 0; b < r; b++ {
				coo.Add(bi*r+a, bj*r+b, rng.NormFloat64())
			}
		}
	}
	for bi := 0; bi < nb; bi++ {
		addBlock(bi, bi)
		for bj := 0; bj < nb; bj++ {
			if bj != bi && rng.Float64() < density {
				addBlock(bi, bj)
			}
		}
	}
	return coo.ToCSR()
}

func csrEqual(t *testing.T, tag string, a, b *CSR) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: shape/nnz mismatch: %v vs %v", tag, a, b)
	}
	for i := 0; i < a.Rows; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		if len(ca) != len(cb) {
			t.Fatalf("%s: row %d nnz %d vs %d", tag, i, len(ca), len(cb))
		}
		for k := range ca {
			if ca[k] != cb[k] || va[k] != vb[k] {
				t.Fatalf("%s: row %d entry %d: (%d,%v) vs (%d,%v)",
					tag, i, k, ca[k], va[k], cb[k], vb[k])
			}
		}
	}
}

func TestBSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{2, 3, 4, 5} {
		a := blockCSR(rng, 17, r, 0.2)
		b, err := ToBSR(a, r, r)
		if err != nil {
			t.Fatal(err)
		}
		if b.NNZ() != a.NNZ() {
			t.Fatalf("r=%d: fill-free matrix gained padding: %d vs %d", r, b.NNZ(), a.NNZ())
		}
		csrEqual(t, "round-trip", a, b.ToCSR())
	}
}

// TestBSRMatVecBitIdentical checks the tentpole contract: the blocked
// kernels reproduce the CSR kernels bit for bit, for every variant, block
// size and worker count — including blocks padded with explicit zeros.
func TestBSRMatVecBitIdentical(t *testing.T) {
	defer SetAutoBlock(SetAutoBlock(false)) // compare raw kernels, not the router
	rng := rand.New(rand.NewSource(2))
	for _, r := range []int{2, 3, 4} {
		// Dense-block matrix (fill-free) and a ragged one (padded blocks).
		for _, density := range []float64{0.15, 0.0} {
			var a *CSR
			if density > 0 {
				a = blockCSR(rng, 33, r, density)
			} else {
				a = randCSR(rng, 33*r, 33*r, 0.05) // scalar pattern → padded blocks
			}
			b, err := ToBSR(a, r, r)
			if err != nil {
				t.Fatal(err)
			}
			n := a.Rows
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			yRef := make([]float64, n)
			prev := par.SetWorkers(1)
			a.MulVecTo(yRef, x)
			par.SetWorkers(prev)

			for _, w := range []int{1, 2, 4, 8} {
				pw := par.SetWorkers(w)
				y := make([]float64, n)
				b.MulVecTo(y, x)
				par.SetWorkers(pw)
				for i := range y {
					if y[i] != yRef[i] {
						t.Fatalf("r=%d w=%d: MulVecTo[%d] = %x, want %x", r, w, i, y[i], yRef[i])
					}
				}
			}
		}
	}
}

// TestBSRMatVecAddSub checks MulVecAdd/MulVecSub against the CSR kernels
// bit for bit across worker counts.
func TestBSRMatVecAddSub(t *testing.T) {
	defer SetAutoBlock(SetAutoBlock(false))
	rng := rand.New(rand.NewSource(3))
	a := blockCSR(rng, 41, 3, 0.1)
	b, err := ToBSR(a, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	x := make([]float64, n)
	y0 := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y0[i] = rng.NormFloat64()
	}
	prev := par.SetWorkers(1)
	addRef := append([]float64(nil), y0...)
	a.MulVecAdd(addRef, -1.3, x)
	subRef := append([]float64(nil), y0...)
	a.MulVecSub(subRef, x)
	par.SetWorkers(prev)

	for _, w := range []int{1, 2, 4, 8} {
		pw := par.SetWorkers(w)
		add := append([]float64(nil), y0...)
		b.MulVecAdd(add, -1.3, x)
		sub := append([]float64(nil), y0...)
		b.MulVecSub(sub, x)
		par.SetWorkers(pw)
		for i := range add {
			if add[i] != addRef[i] {
				t.Fatalf("w=%d: MulVecAdd[%d] = %x, want %x", w, i, add[i], addRef[i])
			}
			if sub[i] != subRef[i] {
				t.Fatalf("w=%d: MulVecSub[%d] = %x, want %x", w, i, sub[i], subRef[i])
			}
		}
	}
}

func TestDetectBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, r := range []int{2, 3, 4} {
		a := blockCSR(rng, 40, r, 0.1)
		if got := DetectBlockSize(a, 1.0); got != r {
			t.Fatalf("dense %d×%d blocks: detected %d", r, r, got)
		}
	}
	// A scalar 5-point-style random pattern has no natural blocks.
	s := randCSR(rng, 120, 120, 0.03)
	if got := DetectBlockSize(s, 1.0); got != 1 {
		t.Fatalf("scalar pattern: detected %d, want 1", got)
	}
	// Dimensions that do not tile decline.
	odd := randCSR(rng, 121, 121, 0.03)
	if got := DetectBlockSize(odd, 1.0); got != 1 {
		t.Fatalf("121×121: detected %d, want 1", got)
	}
}

// TestAutoBlockRouting checks the adaptive path: a large vector-FEM-style
// matrix converts and routes through BSR, a scalar matrix stays CSR, and
// mutation invalidates the cached conversion.
func TestAutoBlockRouting(t *testing.T) {
	defer SetAutoBlock(SetAutoBlock(true))
	rng := rand.New(rand.NewSource(5))
	a := blockCSR(rng, 200, 3, 0.02) // ≫ autoBlockMinNNZ
	if a.NNZ() < autoBlockMinNNZ {
		t.Fatalf("test matrix too small: %d", a.NNZ())
	}
	b := a.AutoBlocked()
	if b == nil {
		t.Fatal("block matrix not auto-converted")
	}
	if b.BR != 3 || b.BC != 3 {
		t.Fatalf("auto-converted to %d×%d blocks, want 3×3", b.BR, b.BC)
	}
	// Routed product equals the direct CSR kernel bit for bit.
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, a.Rows)
	a.MulVecTo(y, x) // routes through b
	yRef := make([]float64, a.Rows)
	b2, _ := ToBSR(a, 3, 3)
	b2.MulVecTo(yRef, x)
	for i := range y {
		if y[i] != yRef[i] {
			t.Fatalf("routed MulVecTo[%d] = %x, want %x", i, y[i], yRef[i])
		}
	}

	// Scalar matrices do not convert.
	s := randCSRLarge(rand.New(rand.NewSource(6)), 2000, 7)
	if s.AutoBlocked() != nil {
		t.Fatal("scalar matrix auto-converted")
	}

	// Mutation invalidates: after the values double and the cache is
	// invalidated, the routed product reflects the new values.
	for k := range a.Val {
		a.Val[k] *= 2
	}
	a.InvalidateBlocked()
	y2 := make([]float64, a.Rows)
	a.MulVecTo(y2, x)
	for i := range y2 {
		if y2[i] != 2*y[i] {
			t.Fatalf("post-mutation routed product stale at %d: %v vs %v", i, y2[i], 2*y[i])
		}
	}

	// Disabled: no conversion.
	SetAutoBlock(false)
	a.InvalidateBlocked()
	if a.AutoBlocked() != nil {
		t.Fatal("AutoBlocked returned a conversion while disabled")
	}
	SetAutoBlock(true)
}

func TestToBSRRejectsBadTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 10, 10, 0.3)
	if _, err := ToBSR(a, 3, 3); err == nil {
		t.Fatal("10×10 tiled by 3×3 did not error")
	}
	if _, err := ToBSR(a, 0, 2); err == nil {
		t.Fatal("zero block size did not error")
	}
}

// FuzzBSRRoundTrip drives random CSR matrices through ToBSR/ToCSR and
// checks the round trip preserves every stored entry (ToCSR drops the
// padding zeros ToBSR introduced, so the fill-free comparison is against
// the original with its own explicit zeros intact).
func FuzzBSRRoundTrip(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 1, 0, 0, 2, 2, 2, 255}, uint8(2))
	f.Add([]byte{1, 16, 0, 15, 7, 0, 0, 7, 0, 15}, uint8(3))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, rSeed uint8) {
		defer SetAutoBlock(SetAutoBlock(false))
		r := 2 + int(rSeed)%3 // block size 2..4
		nb := 3 + len(data)%5
		n := nb * r
		coo := NewCOO(n, n, len(data)+n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1+float64(i)) // nonzero diagonal anchors every row
		}
		for k := 0; k+1 < len(data); k += 2 {
			i := int(data[k]) % n
			j := int(data[k+1]) % n
			coo.Add(i, j, float64(int8(data[k]))-0.5)
		}
		a := coo.ToCSR()
		b, err := ToBSR(a, r, r)
		if err != nil {
			t.Fatal(err)
		}
		back := b.ToCSR()
		// Every original entry must survive with its exact value (COO
		// duplicate summing happened before the conversion).
		for i := 0; i < n; i++ {
			ca, va := a.Row(i)
			for k, j := range ca {
				if va[k] == 0 {
					continue // legitimately dropped with the padding
				}
				cb, vb := back.Row(i)
				found := false
				for kk, jj := range cb {
					if jj == j {
						if vb[kk] != va[k] {
							t.Fatalf("(%d,%d): %x vs %x", i, j, va[k], vb[kk])
						}
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("entry (%d,%d)=%v lost in round trip", i, j, va[k])
				}
			}
		}
		// And the matvecs agree bit for bit.
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		ya := make([]float64, n)
		yb := make([]float64, n)
		prev := par.SetWorkers(1)
		a.MulVecTo(ya, x)
		par.SetWorkers(prev)
		b.MulVecTo(yb, x)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("matvec[%d]: %x vs %x", i, ya[i], yb[i])
			}
		}
	})
}

// BenchmarkSpMVCSR / BenchmarkSpMVBSR pair the scalar and blocked kernels
// on the same 3×3-block matrix (run with -benchmem).
func benchSpMV(b *testing.B, blocked bool) {
	rng := rand.New(rand.NewSource(8))
	a := blockCSR(rng, 1500, 3, 0.003)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	var bm *BSR
	if blocked {
		var err error
		bm, err = ToBSR(a, 3, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	prev := SetAutoBlock(false) // bench the raw kernels, not the router
	b.SetBytes(int64(8 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocked {
			bm.MulVecTo(y, x)
		} else {
			a.MulVecTo(y, x)
		}
	}
	b.StopTimer()
	SetAutoBlock(prev)
}

func BenchmarkSpMVCSR(b *testing.B) { benchSpMV(b, false) }
func BenchmarkSpMVBSR(b *testing.B) { benchSpMV(b, true) }
