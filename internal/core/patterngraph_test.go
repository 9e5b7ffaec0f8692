package core_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/partition"
	"parapre/internal/sparse"
)

// patternGraphRef is PatternGraph as it was when it kept one Go map per
// row. Kept as the oracle.
func patternGraphRef(a *sparse.CSR) *partition.Graph {
	n := a.Rows
	adjSet := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		adjSet[i] = map[int]bool{}
	}
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j32 := range cols {
			j := int(j32)
			if j != i && j < n {
				adjSet[i][j] = true
				adjSet[j][i] = true
			}
		}
	}
	ptr := make([]int, n+1)
	var adj []int
	for i := 0; i < n; i++ {
		keys := make([]int, 0, len(adjSet[i]))
		for j := range adjSet[i] {
			keys = append(keys, j)
		}
		sort.Ints(keys)
		adj = append(adj, keys...)
		ptr[i+1] = len(adj)
	}
	return &partition.Graph{Ptr: ptr, Adj: adj}
}

// randomPattern returns a rows×cols pattern with about perRow entries per
// row, structurally unsymmetric, rows unsorted, some rows empty and some
// with a diagonal entry.
func randomPattern(rng *rand.Rand, rows, cols, perRow int) *sparse.CSR {
	a := sparse.NewCSR(rows, cols, rows*perRow)
	for i := 0; i < rows; i++ {
		seen := map[int]bool{}
		for k := rng.Intn(2*perRow + 1); k > 0; k-- {
			j := rng.Intn(cols)
			if rng.Intn(8) == 0 && i < cols {
				j = i
			}
			if !seen[j] {
				seen[j] = true
				a.ColIdx, a.Val = append(a.ColIdx, int32(j)), append(a.Val, 1)
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a
}

func TestPatternGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mats := []*sparse.CSR{sparse.NewCSR(0, 0, 0), sparse.NewCSR(3, 3, 0), cases.ConvDiff2D(9).A}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		mats = append(mats, randomPattern(rng, n, n+rng.Intn(2)*rng.Intn(5), 1+rng.Intn(6)))
	}
	for k, a := range mats {
		got, want := core.PatternGraph(a), patternGraphRef(a)
		if !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("matrix %d (%d×%d, %d entries): PatternGraph differs from the reference\n got %v %v\nwant %v %v",
				k, a.Rows, a.Cols, a.NNZ(), got.Ptr, got.Adj, want.Ptr, want.Adj)
		}
	}
}

// BenchmarkPatternGraph builds the partition graph of a Matrix Market
// upload the size of the benchmark's cold problems.
func BenchmarkPatternGraph(b *testing.B) {
	a := cases.Poisson2D(129).A
	b.Run("tc1-poisson2d@129", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PatternGraph(a)
		}
	})
	b.Run("tc1-poisson2d@129/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			patternGraphRef(a)
		}
	})
}
