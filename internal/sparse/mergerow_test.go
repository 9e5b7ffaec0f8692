package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// This file holds the row shapes MergeRow's tests share and the digests
// that pin its output. It uses nothing but Entry and MergeRow, so the same
// file runs at a commit whose MergeRow still sorted through sort.Sort —
// which is how the constants in TestMergeRowDigests were recorded.

// rowRand is splitmix64. The generated rows are part of the pin, so they
// come from arithmetic spelled out here rather than from math/rand.
type rowRand uint64

func (r *rowRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rowRand) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rowRand) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// val returns ±(1.m)·2^e with e in [−24, 24]: magnitudes far enough apart
// that the sum of a column's duplicates depends on the order they are
// added in, and mantissas distinct enough to tell two entries apart.
func (r *rowRand) val() float64 {
	z := r.next()
	exp := uint64(1023 - 24 + z%49)
	return math.Float64frombits(z&(1<<63) | exp<<52 | z>>12&(1<<52-1))
}

// distinctCols returns k distinct columns below ncols in random order.
func (r *rowRand) distinctCols(k, ncols int) []int {
	p := make([]int, ncols)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(ncols-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

func (r *rowRand) entries(cols []int) []Entry {
	row := make([]Entry, len(cols))
	for i, j := range cols {
		row[i] = Entry{Col: j, Val: r.val()}
	}
	return row
}

// schurRow is a row as arms.AssembleSchur hands it over: C's row in
// ascending columns, then per entry of E's row the support of that entry's
// group in first-seen order — the distinct columns of a few ascending F
// rows — once for each of the 1–4 rows of the group E's row touches.
// 20–600 entries over 20–120 columns.
func schurRow(r *rowRand) []Entry {
	return schurRowOf(r, r.between(20, 120), r.between(20, 600))
}

func schurRowOf(r *rowRand, ncols, target int) []Entry {
	var cols []int
	for j := 0; j < ncols && len(cols) < target; j++ {
		if r.intn(8) == 0 {
			cols = append(cols, j)
		}
	}
	seen := make([]bool, ncols)
	for len(cols) < target {
		var sup []int
		for fr := r.between(1, 4); fr > 0; fr-- {
			for j := r.intn(4); j < ncols; j += r.between(1, 6) {
				if !seen[j] {
					seen[j] = true
					sup = append(sup, j)
				}
			}
		}
		for _, j := range sup {
			seen[j] = false
		}
		for rep := r.between(1, 4); rep > 0; rep-- {
			cols = append(cols, sup...)
		}
	}
	return r.entries(cols[:target])
}

// femRow is the row of an interior node of a linear triangulation in a
// coordinate buffer: six elements around the node, each adding the node's
// own column and two of its six neighbours' in the element's local order.
// 18 entries over 7 columns.
func femRow(r *rowRand) []Entry {
	n := r.distinctCols(7, 4000) // n[6] is the node itself
	var cols []int
	for e := 0; e < 6; e++ {
		el := [3]int{n[6], n[e], n[(e+1)%6]}
		rot := r.intn(3)
		cols = append(cols, el[rot], el[(rot+1)%3], el[(rot+2)%3])
	}
	return r.entries(cols)
}

// tieRow draws n columns uniformly from a handful.
func tieRow(r *rowRand, n int) []Entry {
	ncols := r.between(1, 9)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = r.intn(ncols)
	}
	return r.entries(cols)
}

// patternRow is an ascending staircase with ties — as is, with a few
// neighbours exchanged, reversed, or as an organ pipe: the inputs
// pdqsort's pattern detection (choosePivot's hints, reverseRange,
// partialInsertionSort, breakPatterns) exists for.
func patternRow(r *rowRand) []Entry {
	n, step := r.between(13, 400), r.between(1, 5)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i / step
	}
	switch r.intn(4) {
	case 1:
		for k := r.between(1, 6); k > 0; k-- {
			i := r.intn(n - 1)
			cols[i], cols[i+1] = cols[i+1], cols[i]
		}
	case 2:
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			cols[i], cols[j] = cols[j], cols[i]
		}
	case 3:
		for i := range cols {
			cols[i] = min(i, n-1-i) / step
		}
	}
	return r.entries(cols)
}

// edgeLengths straddle pdqsort's thresholds: nothing to sort, the
// insertion-sort limit of 12, the ninther and shifting limit of 50.
var edgeLengths = []int{0, 1, 12, 13, 49, 50, 51}

// mergeRowShapes are the row families every MergeRow test draws from.
var mergeRowShapes = []struct {
	name string
	gen  func(r *rowRand) []Entry
}{
	{"schur", schurRow},
	{"fem", femRow},
	{"ties", func(r *rowRand) []Entry { return tieRow(r, r.between(2, 300)) }},
	{"pattern", patternRow},
	{"all-equal", func(r *rowRand) []Entry {
		return r.entries(make([]int, r.between(2, 200)))
	}},
	{"edge-lengths", func(r *rowRand) []Entry {
		return tieRow(r, edgeLengths[r.intn(len(edgeLengths))])
	}},
}

// TestMergeRowDigests pins MergeRow's output — columns and the bits of
// every duplicate sum — on a dozen seeded rows of each shape. The
// constants were recorded by running this file at commit 53cf51f, where
// MergeRow sorted with sort.Sort under go1.24; they pin the repository's
// matrices independently of what the standard library's sort does today.
func TestMergeRowDigests(t *testing.T) {
	want := map[string]string{
		"schur":        "d16152e4fed38a570adf163a7039d4b1aaccf360cb7784e2ddce3d7266b5d1d6",
		"fem":          "644e7cd97529f35ebde0673cb9e307b25d8de31ef9aab376c2fff84820c1b242",
		"ties":         "f538b603820061a827601176e8ee361f83ec1d573d2e728cb0924b5e5dff9a05",
		"pattern":      "14357876567422085a4b40eade134a0dc44b905ac0456cab806aee5648be0585",
		"all-equal":    "189538f41dc8083761a15eb8406c9e169a661fe6c46c59ca86dc53fb836b17a2",
		"edge-lengths": "97ece92b966f0a80338c3fa37a14861eb7d9d7a1f8f95e55b5ec6e08495e9697",
	}
	for si, shape := range mergeRowShapes {
		h := sha256.New()
		var word [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		r := rowRand(1000 * (si + 1))
		for k := 0; k < 12; k++ {
			cols, vals := MergeRow(shape.gen(&r), nil, nil)
			put(uint64(len(cols)))
			for i, j := range cols {
				put(uint64(j))
				put(math.Float64bits(vals[i]))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[shape.name] {
			t.Errorf("%s: digest %s, want %s: MergeRow's duplicate sums changed, and with them every assembled matrix and Schur complement",
				shape.name, got, want[shape.name])
		}
	}
}

// BenchmarkMergeRow merges the two rows that dominate a cold set-up: a
// 250-entry Schur-complement row and an 18-entry finite-element row.
func BenchmarkMergeRow(b *testing.B) {
	r := rowRand(7)
	for _, bc := range []struct {
		name string
		row  []Entry
	}{{"schur250", schurRowOf(&r, 60, 250)}, {"fem18", femRow(&r)}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]Entry, len(bc.row))
			var cols []int32
			var vals []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, bc.row)
				cols, vals = MergeRow(buf, cols[:0], vals[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bc.row)), "ns/entry")
		})
	}
}
