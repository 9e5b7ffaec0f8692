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
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above)
	piv  []int32
	sign int
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
	// capacity, which a reduction's thousands of small factors would show
	// as spare capacity nothing can use (core.TestSessionHoldsNoSlack).
	f := &LU{n: n, lu: make([]float64, len(d.Data)), piv: make([]int32, n), sign: 1}
	copy(f.lu, d.Data)
	for i := range f.piv {
		f.piv[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("sparse: singular matrix at pivot %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[k*n+j], f.lu[p*n+j] = f.lu[p*n+j], f.lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= m * f.lu[k*n+j]
			}
		}
	}
	return f, nil
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

// SolveManyTo solves A·X = B for nrhs right-hand sides stored one after
// the other: column c of B is b[c·n:(c+1)·n] and its solution lands in
// x[c·n:(c+1)·n], n being the order of the matrix. x and b must not alias.
// Four columns go through the pivot gather and the two substitutions in
// one loop nest — four independent accumulation chains over one pass of
// the factor instead of one — and each column sees exactly SolveTo's
// operations in SolveTo's order, so every solution has SolveTo's bits; the
// columns left over go through SolveTo. It panics before writing anything
// unless len(b) is nrhs·n — a block of another order is a caller's
// mistake, not a prefix to solve — and x holds at least as many entries.
func (f *LU) SolveManyTo(x, b []float64, nrhs int) {
	n := f.n
	if nrhs < 0 || len(b) != nrhs*n || len(x) < nrhs*n {
		panic(fmt.Sprintf("sparse: LU.SolveManyTo on order %d with %d right-hand sides needs len(b) = %d, len(x) ≥ %d; got %d, %d",
			n, nrhs, nrhs*n, nrhs*n, len(b), len(x)))
	}
	c := 0
	for ; c+4 <= nrhs; c += 4 {
		x0, x1, x2, x3 := x[c*n:][:n], x[(c+1)*n:][:n], x[(c+2)*n:][:n], x[(c+3)*n:][:n]
		b0, b1, b2, b3 := b[c*n:][:n], b[(c+1)*n:][:n], b[(c+2)*n:][:n], b[(c+3)*n:][:n]
		for i, p := range f.piv {
			x0[i], x1[i], x2[i], x3[i] = b0[p], b1[p], b2[p], b3[p]
		}
		for i := 1; i < n; i++ {
			var s0, s1, s2, s3 float64
			for j, l := range f.lu[i*n : i*n+i] {
				s0 += l * x0[j]
				s1 += l * x1[j]
				s2 += l * x2[j]
				s3 += l * x3[j]
			}
			x0[i] -= s0
			x1[i] -= s1
			x2[i] -= s2
			x3[i] -= s3
		}
		for i := n - 1; i >= 0; i-- {
			var s0, s1, s2, s3 float64
			row := f.lu[i*n : (i+1)*n]
			for j := i + 1; j < n; j++ {
				u := row[j]
				s0 += u * x0[j]
				s1 += u * x1[j]
				s2 += u * x2[j]
				s3 += u * x3[j]
			}
			d := row[i]
			x0[i] = (x0[i] - s0) / d
			x1[i] = (x1[i] - s1) / d
			x2[i] = (x2[i] - s2) / d
			x3[i] = (x3[i] - s3) / d
		}
	}
	for ; c < nrhs; c++ {
		f.SolveTo(x[c*n:][:n], b[c*n:][:n])
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}
