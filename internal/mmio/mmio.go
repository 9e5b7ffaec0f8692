// Package mmio reads and writes Matrix Market files — the exchange format
// of the SPARSKIT/pARMS era the paper's software stack comes from. It
// supports coordinate-format real matrices (general, symmetric and
// skew-symmetric, plus pattern matrices read as 1.0 entries) and
// array-format dense vectors, which is what the solver drivers need to
// run the paper's preconditioners on arbitrary user matrices.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"parapre/internal/sparse"
)

// maxDim and maxNNZ bound accepted inputs: parsing is O(rows + nnz) in
// memory, so unbounded headers would let a tiny hostile file allocate
// gigabytes.
const (
	maxDim = 1 << 24
	maxNNZ = 1 << 28
)

// A matrix read here stores its columns in 32 bits (sparse.CSR): this fails
// to compile once maxDim is raised past math.MaxInt32.
const _ = uint32(math.MaxInt32 - maxDim)

// maxPrealloc caps what a size line makes a reader allocate before the
// entries it promises have been read: a header is a claim, and past this
// many the buffers grow with the input.
const maxPrealloc = 1 << 16

// header fields of the %%MatrixMarket banner.
type header struct {
	object   string // matrix
	format   string // coordinate | array
	field    string // real | integer | pattern
	symmetry string // general | symmetric | skew-symmetric
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("mmio: malformed banner %q", line)
	}
	h := header{object: fields[1], format: fields[2], field: fields[3], symmetry: fields[4]}
	if h.object != "matrix" {
		return h, fmt.Errorf("mmio: unsupported object %q", h.object)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mmio: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return h, fmt.Errorf("mmio: unsupported symmetry %q", h.symmetry)
	}
	return h, nil
}

// nextDataLine returns the next non-comment, non-blank line.
func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// MatrixSize reads the banner and the size line of a Matrix Market
// coordinate matrix and returns what they declare — rows, columns and
// stored entries — without reading an entry: what a server checks before
// it lets ReadMatrix allocate for them.
func MatrixSize(r io.Reader) (rows, cols, nnz int, err error) {
	_, rows, cols, nnz, err = readMatrixSize(newScanner(r))
	return rows, cols, nnz, err
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return sc
}

func readMatrixSize(sc *bufio.Scanner) (h header, rows, cols, nnz int, err error) {
	if !sc.Scan() {
		return h, 0, 0, 0, fmt.Errorf("mmio: empty input")
	}
	if h, err = parseHeader(sc.Text()); err != nil {
		return h, 0, 0, 0, err
	}
	if h.format != "coordinate" {
		return h, 0, 0, 0, fmt.Errorf("mmio: matrices must be in coordinate format, got %q", h.format)
	}
	sizeLine, err := nextDataLine(sc)
	if err != nil {
		return h, 0, 0, 0, fmt.Errorf("mmio: missing size line: %w", err)
	}
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return h, 0, 0, 0, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return h, 0, 0, 0, fmt.Errorf("mmio: bad dimensions %d×%d nnz=%d", rows, cols, nnz)
	}
	if rows > maxDim || cols > maxDim || nnz > maxNNZ {
		return h, 0, 0, 0, fmt.Errorf("mmio: dimensions %d×%d nnz=%d exceed the supported maximum (%d / %d)",
			rows, cols, nnz, maxDim, maxNNZ)
	}
	return h, rows, cols, nnz, nil
}

// ReadMatrix parses a Matrix Market matrix. Symmetric and skew-symmetric
// storage is expanded to full form; pattern entries become 1.0.
func ReadMatrix(r io.Reader) (*sparse.CSR, error) {
	sc := newScanner(r)
	h, rows, cols, nnz, err := readMatrixSize(sc)
	if err != nil {
		return nil, err
	}
	coo := sparse.NewCOO(rows, cols, min(nnz*2, maxPrealloc))
	for k := 0; k < nnz; k++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d of %d: %w", k+1, nnz, err)
		}
		fields := strings.Fields(line)
		wantFields := 3
		if h.field == "pattern" {
			wantFields = 2
		}
		if len(fields) < wantFields {
			return nil, fmt.Errorf("mmio: entry %d malformed: %q", k+1, line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d row: %w", k+1, err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d col: %w", k+1, err)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d value: %w", k+1, err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry %d index (%d,%d) out of range", k+1, i, j)
		}
		coo.Add(i-1, j-1, v)
		if i != j {
			switch h.symmetry {
			case "symmetric":
				coo.Add(j-1, i-1, v)
			case "skew-symmetric":
				coo.Add(j-1, i-1, -v)
			}
		}
	}
	return coo.ToCSR(), nil
}

// WriteMatrix writes a in coordinate real general format.
func WriteMatrix(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k])
		}
	}
	return bw.Flush()
}

// ReadVector parses an array-format dense vector (n×1 real matrix).
func ReadVector(r io.Reader) ([]float64, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	h, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	if h.format != "array" || h.field == "pattern" {
		return nil, fmt.Errorf("mmio: vectors must be real array format")
	}
	sizeLine, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("mmio: missing size line: %w", err)
	}
	var rows, cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols); err != nil {
		return nil, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if cols != 1 {
		return nil, fmt.Errorf("mmio: expected a column vector, got %d×%d", rows, cols)
	}
	if rows < 0 || rows > maxDim {
		return nil, fmt.Errorf("mmio: vector length %d out of range", rows)
	}
	out := make([]float64, 0, min(rows, maxPrealloc))
	for k := 0; k < rows; k++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("mmio: value %d of %d: %w", k+1, rows, err)
		}
		v, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
		if err != nil {
			return nil, fmt.Errorf("mmio: value %d: %w", k+1, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ReadSystem reads a square system matrix and its right-hand side, the
// input of a solver driver. A nil rhs gives b = A·1, whose exact solution
// is all ones.
func ReadSystem(matrix, rhs io.Reader) (*sparse.CSR, []float64, error) {
	a, err := ReadMatrix(matrix)
	if err != nil {
		return nil, nil, fmt.Errorf("matrix: %w", err)
	}
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("matrix is %d×%d, want square", a.Rows, a.Cols)
	}
	if rhs == nil {
		ones := make([]float64, a.Cols)
		for i := range ones {
			ones[i] = 1
		}
		return a, a.MulVec(ones), nil
	}
	b, err := ReadVector(rhs)
	if err != nil {
		return nil, nil, fmt.Errorf("rhs: %w", err)
	}
	if len(b) != a.Rows {
		return nil, nil, fmt.Errorf("rhs length %d, matrix has %d rows", len(b), a.Rows)
	}
	return a, b, nil
}

// WriteVector writes x as an array-format column vector.
func WriteVector(w io.Writer, x []float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix array real general")
	fmt.Fprintf(bw, "%d 1\n", len(x))
	for _, v := range x {
		fmt.Fprintf(bw, "%.17g\n", v)
	}
	return bw.Flush()
}
