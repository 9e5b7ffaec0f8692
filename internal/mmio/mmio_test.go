package mmio

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parapre/internal/sparse"
)

func randCSR(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*4)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestMatrixRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randCSR(rng, 2+rng.Intn(20))
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, a); err != nil {
			return false
		}
		b, err := ReadMatrix(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	x := []float64{1, -2.5, 3e-17, math.Pi, 0}
	var buf bytes.Buffer
	if err := WriteVector(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("vector differs at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 1.5
`
	a, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatalf("symmetric expansion failed: %v %v", a.At(0, 1), a.At(1, 0))
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz %d, want 5", a.NNZ())
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
`
	a, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != 3 || a.At(0, 1) != -3 {
		t.Fatalf("skew expansion failed: %v %v", a.At(1, 0), a.At(0, 1))
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern values not 1.0")
	}
}

func TestReadIntegerField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 7
2 2 -3
`
	a, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 7 || a.At(1, 1) != -3 {
		t.Fatal("integer values misread")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"badBanner":     "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
		"badObject":     "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"badField":      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"badSymmetry":   "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"arrayMatrix":   "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"missingSize":   "%%MatrixMarket matrix coordinate real general\n",
		"badSize":       "%%MatrixMarket matrix coordinate real general\nx y z\n",
		"negativeSize":  "%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
		"truncated":     "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"outOfRange":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"malformedRow":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"badValueToken": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadVectorErrors(t *testing.T) {
	cases := map[string]string{
		"coordinate": "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
		"matrix":     "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"truncated":  "%%MatrixMarket matrix array real general\n3 1\n1\n",
	}
	for name, in := range cases {
		if _, err := ReadVector(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDuplicateEntriesSummed(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
1 1 2.5
2 2 1.0
`
	a, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 3.5 {
		t.Fatalf("duplicates not summed: %v", a.At(0, 0))
	}
}

func TestReadSystem(t *testing.T) {
	const mat = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n1 2 -1\n2 2 3\n"
	a, b, err := ReadSystem(strings.NewReader(mat), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 2 || len(b) != 2 || b[0] != 1 || b[1] != 3 {
		t.Fatalf("nil rhs: b = %v, want A·1 = [1 3]", b)
	}
	_, b, err = ReadSystem(strings.NewReader(mat), strings.NewReader("%%MatrixMarket matrix array real general\n2 1\n5\n6\n"))
	if err != nil || b[0] != 5 || b[1] != 6 {
		t.Fatalf("rhs: b = %v, %v", b, err)
	}
	for name, tc := range map[string]struct{ mat, rhs, want string }{
		"not square": {"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n", "", "matrix is 2×3, want square"},
		"bad matrix": {"garbage\n", "", "matrix: mmio: malformed banner"},
		"bad rhs":    {mat, "garbage\n", "rhs: mmio: malformed banner"},
		"short rhs":  {mat, "%%MatrixMarket matrix array real general\n1 1\n5\n", "rhs length 1, matrix has 2 rows"},
	} {
		var rhs io.Reader
		if tc.rhs != "" {
			rhs = strings.NewReader(tc.rhs)
		}
		if _, _, err := ReadSystem(strings.NewReader(tc.mat), rhs); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
	}
}
