package sparse

import (
	"math"
	"sort"
	"testing"
)

// entsByCol is how MergeRow sorted a row until sortEntriesByCol replaced
// it: sort.Sort over this concrete sort.Interface. Kept as the reference.
type entsByCol []Entry

func (e entsByCol) Len() int           { return len(e) }
func (e entsByCol) Less(i, j int) bool { return e[i].Col < e[j].Col }
func (e entsByCol) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }

// toolchainNote ends every failure of a comparison against the standard
// library in this file.
const toolchainNote = `
If this started with a toolchain upgrade, the standard library's sort moved
and the repository's bits did not: sortEntriesByCol is the frozen copy the
goldens were recorded with, and TestMergeRowDigests (which does not look at
the standard library) says whether it still is. In that case replace the
sort.Sort reference in this file by a frozen interface-typed copy of the
go1.24 pdqsort; do not change sortentries.go.`

// sameEntries compares columns and the bits of the values, so that two
// orders of a column's duplicates are told apart.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Col != b[i].Col || math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) {
			return false
		}
	}
	return true
}

// checkSortMatchesStdlib sorts one copy of row through sort.Sort and one
// through sortEntriesByCol and compares them entry by entry.
func checkSortMatchesStdlib(t *testing.T, what string, row []Entry) {
	t.Helper()
	want := append([]Entry(nil), row...)
	got := append([]Entry(nil), row...)
	sort.Sort(entsByCol(want))
	sortEntriesByCol(got)
	if !sameEntries(got, want) {
		t.Fatalf("%s (%d entries): sortEntriesByCol and sort.Sort order the row differently\n in  %v\n got %v\nwant %v%s",
			what, len(row), row, got, want, toolchainNote)
	}
}

// TestSortEntriesMatchesStdlib holds the ported pdqsort to the one it was
// copied from: equal columns must come out in sort.Sort's order, because
// that order is the order MergeRow adds a column's duplicates in.
func TestSortEntriesMatchesStdlib(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for si, shape := range mergeRowShapes {
		r := rowRand(si + 1)
		for k := 0; k < rounds; k++ {
			checkSortMatchesStdlib(t, shape.name, shape.gen(&r))
		}
	}
	// Every threshold length, tie-heavy and tie-free.
	r := rowRand(99)
	for _, n := range edgeLengths {
		for k := 0; k < rounds/10; k++ {
			checkSortMatchesStdlib(t, "edge length, ties", tieRow(&r, n))
			checkSortMatchesStdlib(t, "edge length, distinct", r.entries(r.distinctCols(n, 64)))
		}
	}
}

// recordingEnts is entsByCol with a log of its swaps.
type recordingEnts struct {
	entsByCol
	swaps [][2]int
}

func (e *recordingEnts) Swap(i, j int) {
	e.swaps = append(e.swaps, [2]int{i, j})
	e.entsByCol.Swap(i, j)
}

// siftDownRef and heapSortRef are sort/zsortinterface.go's siftDown and
// heapSort (go1.24), interface-typed as they are there. sort.Sort reaches
// them only after bits.Len(n) badly balanced pivots in a row, which no
// generated row above provokes, so the port of these two functions is
// compared against this copy directly.
func siftDownRef(data sort.Interface, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data.Less(first+child, first+child+1) {
			child++
		}
		if !data.Less(first+root, first+child) {
			return
		}
		data.Swap(first+root, first+child)
		root = child
	}
}

func heapSortRef(data sort.Interface, a, b int) {
	first := a
	lo := 0
	hi := b - a
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownRef(data, i, hi, first)
	}
	for i := hi - 1; i >= 0; i-- {
		data.Swap(first, first+i)
		siftDownRef(data, lo, i, first)
	}
}

// TestHeapSortEntriesMatchesReference compares the ported fallback with
// the interface-typed original swap for swap. One siftDown's swaps walk a
// single root-to-leaf path, and with distinct values that path can be read
// off the result, so agreeing after every single call is agreeing on every
// swap; heapSort is then compared as a whole, on sub-ranges too. The
// recorded swaps are replayed on the input as a check that the reference
// moved entries only through Swap, and counted so that the comparison is
// known to have had work to agree on.
func TestHeapSortEntriesMatchesReference(t *testing.T) {
	replay := func(row []Entry, swaps [][2]int) []Entry {
		out := append([]Entry(nil), row...)
		for _, s := range swaps {
			out[s[0]], out[s[1]] = out[s[1]], out[s[0]]
		}
		return out
	}
	r := rowRand(5)
	var nSift, nHeap int
	for k := 0; k < 4000; k++ {
		row := tieRow(&r, r.between(1, 80))
		if k%4 == 0 {
			row = schurRow(&r)
		}
		n := len(row)
		a := r.intn(n)
		b := r.between(a+1, n)

		// One siftDown from a random root of the heap laid over row[a:b].
		lo := r.intn(b - a)
		ref := &recordingEnts{entsByCol: append(entsByCol(nil), row...)}
		got := append([]Entry(nil), row...)
		siftDownRef(ref, lo, b-a, a)
		siftDownEntries(got, lo, b-a, a)
		if !sameEntries(got, ref.entsByCol) || !sameEntries(got, replay(row, ref.swaps)) {
			t.Fatalf("siftDownEntries(lo %d, hi %d, first %d) differs from the reference after swaps %v\n in  %v\n got %v\nwant %v",
				lo, b-a, a, ref.swaps, row, got, ref.entsByCol)
		}
		nSift += len(ref.swaps)

		ref = &recordingEnts{entsByCol: append(entsByCol(nil), row...)}
		got = append(got[:0], row...)
		heapSortRef(ref, a, b)
		heapSortEntries(got, a, b)
		if !sameEntries(got, ref.entsByCol) || !sameEntries(got, replay(row, ref.swaps)) {
			t.Fatalf("heapSortEntries(%d, %d) differs from the reference\n in  %v\n got %v\nwant %v", a, b, row, got, ref.entsByCol)
		}
		if !sort.IsSorted(entsByCol(got[a:b])) || !sameEntries(got[:a], row[:a]) || !sameEntries(got[b:], row[b:]) {
			t.Fatalf("heapSortEntries(%d, %d) left its range unsorted or wrote outside it\n in  %v\n got %v", a, b, row, got)
		}
		nHeap += len(ref.swaps)
	}
	if nSift < 1000 || nHeap < 100000 {
		t.Fatalf("the reference swapped %d times in siftDown and %d times in heapSort: too few for the comparison to mean anything", nSift, nHeap)
	}
}

// FuzzMergeRowSort sorts arbitrary column sequences both ways. Values
// number the entries, so any difference in the order of equal columns
// shows.
func FuzzMergeRowSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 1, 2, 2, 0, 3, 1, 1, 2})
	organ := make([]byte, 120)
	for i := range organ {
		organ[i] = byte(min(i, len(organ)-1-i) / 3)
	}
	f.Add(organ)
	down := make([]byte, 70)
	for i := range down {
		down[i] = byte(len(down)-i) / 2
	}
	f.Add(down)
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]Entry, len(data))
		for i, c := range data {
			row[i] = Entry{Col: int(c), Val: float64(i)}
		}
		checkSortMatchesStdlib(t, "fuzzed row", row)
	})
}
