package sparse

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. It backs the small systems in this
// repository: coarse-grid corrections, Hessenberg least-squares inside
// GMRES (via the krylov package), and test oracles for the sparse kernels.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed r×c dense matrix.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns entry (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns entry (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Add adds v to entry (i, j).
func (d *Dense) Add(i, j int, v float64) { d.Data[i*d.Cols+j] += v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{Rows: d.Rows, Cols: d.Cols, Data: append([]float64(nil), d.Data...)}
}

// MulVec returns y = D·x.
func (d *Dense) MulVec(x []float64) []float64 {
	y := make([]float64, d.Rows)
	d.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = D·x without allocating.
func (d *Dense) MulVecTo(y, x []float64) {
	if len(y) < d.Rows || len(x) < d.Cols {
		panic(fmt.Sprintf("sparse: Dense.MulVecTo on %d×%d matrix needs len(y) ≥ %d, len(x) ≥ %d; got %d, %d",
			d.Rows, d.Cols, d.Rows, d.Cols, len(y), len(x)))
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// LU is an LU factorization with partial pivoting of a square dense matrix.
type LU struct {
	n   int
	lu  []float64 // packed L (unit diagonal, below) and U (on/above)
	piv []int32
}

// Factor computes the LU factorization of square d with partial pivoting.
// It returns an error when a pivot underflows, i.e. the matrix is singular
// to working precision.
func (d *Dense) Factor() (*LU, error) {
	if d.Rows != d.Cols {
		return nil, fmt.Errorf("sparse: LU of non-square %d×%d matrix", d.Rows, d.Cols)
	}
	n := d.Rows
	// make, not append: append reports the allocator's size class as
	// capacity, which many small factors would show as spare capacity
	// nothing can use (core.TestSessionHoldsNoSlack).
	f := &LU{n: n, lu: make([]float64, len(d.Data)), piv: make([]int32, n)}
	copy(f.lu, d.Data)
	if err := factorInPlace(f.lu, f.piv, n); err != nil {
		return nil, err
	}
	return f, nil
}

// factorInPlace overwrites the row-major n×n matrix lu with its LU
// factorization with partial pivoting — L below the diagonal with a unit
// diagonal, U on and above — and piv with the row taken at each step. This
// is the one elimination of the dense factors: Dense.Factor's and each
// group of FactorBlockDiag's.
func factorInPlace(lu []float64, piv []int32, n int) error {
	for i := range piv {
		piv[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return fmt.Errorf("sparse: singular matrix at pivot %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b in place of a fresh slice, where A is the factored
// matrix.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x without allocating. x and b must not
// alias (the pivot gather reads b while x is written). It panics before
// writing anything unless len(b) is the order of the matrix and x holds
// at least as many entries.
func (f *LU) SolveTo(x, b []float64) {
	if len(b) != f.n || len(x) < f.n {
		panic(fmt.Sprintf("sparse: LU.SolveTo on order %d needs len(b) = %d, len(x) ≥ %d; got %d, %d",
			f.n, f.n, f.n, len(b), len(x)))
	}
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu[i*n+i]
	}
}
