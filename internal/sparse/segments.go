package sparse

import "sync/atomic"

// ParMinNNZ is the matrix size below which the matrix-vector kernels stay
// serial: small subdomain blocks are not worth the fan-out. Kernels outside
// this package that sweep sparse rows gate on it too.
const ParMinNNZ = 8192

// RowSegments caches the split of a matrix's rows into contiguous segments
// of about equal entry counts that a parallel matrix-vector kernel sweeps,
// one per worker, so one long row does not serialize the sweep. The zero
// value is ready for use. The split is computed on first use, atomically
// published (two ranks may share a matrix read-only), and recomputed
// whenever the segment count, the row count or the entry count changed
// since it was built. Balance — not correctness — depends on it: any split
// that covers the rows gives the exact products, since every row is still
// summed on its own.
type RowSegments struct {
	c atomic.Pointer[rowPartCache]
}

// rowPartCache is one computed split, tagged with the shape it was
// computed for so structural edits invalidate it.
type rowPartCache struct {
	segs, rows, nnz int
	bounds          []int // len segs+1, non-decreasing, covers [0, rows)
}

// Bounds returns segs+1 non-decreasing row bounds covering [0, rows), for
// rows that hold nnz entries, rowLen(i) of them in row i. Segment s starts
// at the first row with at least s·nnz/segs entries before it.
func (p *RowSegments) Bounds(segs, rows, nnz int, rowLen func(i int) int) []int {
	if c := p.c.Load(); c != nil && c.segs == segs && c.rows == rows && c.nnz == nnz {
		return c.bounds
	}
	bounds := make([]int, segs+1)
	s, before := 1, 0
	for r := 0; r < rows && s < segs; r++ {
		for s < segs && before >= int(int64(s)*int64(nnz)/int64(segs)) {
			bounds[s] = r
			s++
		}
		before += rowLen(r)
	}
	for ; s <= segs; s++ {
		bounds[s] = rows
	}
	p.c.Store(&rowPartCache{segs: segs, rows: rows, nnz: nnz, bounds: bounds})
	return bounds
}
