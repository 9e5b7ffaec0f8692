package sparse

import (
	"testing"

	"parapre/internal/par"
	"parapre/internal/paranoid"
)

// measureSteadyAllocs pins the pool to w workers, runs one warm-up call
// to build the cached row partition and block-routing verdict, then
// measures steady-state allocations. Above one worker the paranoid build
// re-checks each partition's bounds with a formatted check that
// allocates, so those rows run untagged only.
func measureSteadyAllocs(t *testing.T, w int, mul func()) float64 {
	t.Helper()
	if w > 1 && paranoid.Enabled {
		t.Skip("the paranoid build's partition check allocates")
	}
	prev := par.SetWorkers(w)
	defer par.SetWorkers(prev)
	mul()
	return testing.AllocsPerRun(10, mul)
}

// blockTestCSR builds an r×r-blocked, block-tridiagonal, diagonally
// dominant matrix of nb block rows.
func blockTestCSR(nb, r int) *CSR {
	n := r * nb
	coo := NewCOO(n, n, 3*r*n)
	for bi := 0; bi < nb; bi++ {
		for k := 0; k < r; k++ {
			i := r*bi + k
			for c := 0; c < r; c++ {
				coo.Add(i, r*bi+c, 4)
				if bi > 0 {
					coo.Add(i, r*(bi-1)+c, -1)
				}
				if bi < nb-1 {
					coo.Add(i, r*(bi+1)+c, -1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// The matvecs allocate nothing once warm. At one worker that covers each
// path a matrix can take: routed through its BSR twin, or swept as CSR
// below the detection floor or after detection declined, every verdict
// cached by the warm-up call. Above ParMinNNZ at two workers the sweep
// reads the row partition the warm-up cached, and the one allocation left
// is the closure handed to the pool (AllocsPerRun measures at GOMAXPROCS
// 1, where the pool runs the segments inline, so the count does not
// depend on the machine).
func TestCSRMulVecToZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a       *CSR
		routed  bool
		workers int
		want    float64
	}{
		{"routed 2x2", blockTestCSR(600, 2), true, 1, 0},
		{"below detection floor", poisson2D(10), false, 1, 0},
		{"detection declined", poisson2D(50), false, 1, 0},
		{"row partition/2 workers", poisson2D(50), false, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if routed := a.AutoBlocked() != nil; routed != tc.routed {
				t.Fatalf("routed through BSR: %v, want %v", routed, tc.routed)
			}
			if tc.workers > 1 && a.NNZ() < ParMinNNZ {
				t.Fatalf("%d stored entries stay under ParMinNNZ = %d: the sweep would not fan out", a.NNZ(), ParMinNNZ)
			}
			x := make([]float64, a.Cols)
			y := make([]float64, a.Rows)
			for i := range x {
				x[i] = float64(i%9) - 4
			}
			if got := measureSteadyAllocs(t, tc.workers, func() { a.MulVecTo(y, x) }); got != tc.want {
				t.Fatalf("CSR.MulVecTo allocates %v objects per steady-state call, want %v", got, tc.want)
			}
		})
	}
}

// The BSR matvec allocates nothing once warm, in each of its kernels (2×2,
// 3×3 and the generic block) at one worker; at two workers it reads the
// cached block-row partition and allocates only the pool's closure.
func TestBSRMulVecToZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nb, r   int
		workers int
		want    float64
	}{
		{"2x2", 600, 2, 1, 0},
		{"3x3", 400, 3, 1, 0},
		{"4x4 generic", 300, 4, 1, 0},
		{"block-row partition/2 workers", 1000, 2, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := ToBSR(blockTestCSR(tc.nb, tc.r), tc.r, tc.r)
			if err != nil {
				t.Fatalf("ToBSR: %v", err)
			}
			if tc.workers > 1 && b.NNZ() < ParMinNNZ {
				t.Fatalf("%d stored entries stay under ParMinNNZ = %d: the sweep would not fan out", b.NNZ(), ParMinNNZ)
			}
			x := make([]float64, b.Cols)
			y := make([]float64, b.Rows)
			for i := range x {
				x[i] = float64(i%9) - 4
			}
			if got := measureSteadyAllocs(t, tc.workers, func() { b.MulVecTo(y, x) }); got != tc.want {
				t.Fatalf("BSR.MulVecTo allocates %v objects per steady-state call, want %v", got, tc.want)
			}
		})
	}
}
