package ilu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// selectLargestRef is the sort-based selectLargest this package used until
// the nth-element version replaced it, kept verbatim as the oracle: the
// new one must keep the same set of columns for every input.
func selectLargestRef(dst, cand []int, w []float64, drop float64, limit, always int) []int {
	kept := dst[:0]
	for _, j := range cand {
		if j == always || math.Abs(w[j]) > drop {
			kept = append(kept, j)
		}
	}
	// Fast path: everything fits.
	count := len(kept)
	if always >= 0 {
		count--
	}
	if count <= limit {
		return kept
	}
	sort.Slice(kept, func(a, b int) bool {
		ja, jb := kept[a], kept[b]
		if ja == always {
			return true
		}
		if jb == always {
			return false
		}
		return math.Abs(w[ja]) > math.Abs(w[jb])
	})
	if always >= 0 {
		return kept[:limit+1]
	}
	return kept[:limit]
}

// straddles reports whether the limit binds on this input and candidates
// of equal magnitude sit on both sides of the cut — the one case in which
// selectLargest must fall through to the sort.
func straddles(cand []int, w []float64, drop float64, limit, always int) bool {
	var mag []float64
	total := limit
	if always >= 0 {
		total++
	}
	for _, j := range cand {
		if j == always {
			total--
		} else if m := math.Abs(w[j]); m > drop {
			mag = append(mag, m)
		}
	}
	if total <= 0 || len(mag) <= total {
		return false
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mag)))
	return mag[total-1] == mag[total]
}

// checkSelect compares the two implementations as sets (both callers sort
// the result by column), checks that cand is untouched, and checks which
// path ran by the order of the result: the sort leaves it descending in
// magnitude behind `always`, the partition path leaves it in candidate
// order — the sort must run when a tie straddles the cut and must not run
// when the limit binds without one. It reports whether a tie straddled.
func checkSelect(t *testing.T, sel *selector, cand []int, w []float64, drop float64, limit, always int) bool {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("cand=%v w=%v drop=%g limit=%d always=%d: "+format,
			append([]any{cand, w, drop, limit, always}, args...)...)
	}
	before := append([]int(nil), cand...)
	want := append([]int(nil), selectLargestRef(nil, append([]int(nil), cand...), w, drop, limit, always)...)
	got := sel.selectLargest(cand, w, drop, limit, always)
	for k := range cand {
		if cand[k] != before[k] {
			fail("selectLargest reordered its candidates, were %v", before)
		}
	}
	tie := straddles(cand, w, drop, limit, always)
	if tie {
		for k := 1; k < len(got); k++ {
			if got[k] == always || (got[k-1] != always && math.Abs(w[got[k-1]]) < math.Abs(w[got[k]])) {
				fail("a tie straddles the cut but the result %v is not sorted: the fallback did not run", got)
			}
		}
	} else {
		k := 0
		for _, j := range cand {
			if k < len(got) && got[k] == j {
				k++
			}
		}
		if k != len(got) {
			fail("no tie straddles the cut but the result %v is not in candidate order: the fallback ran", got)
		}
	}
	got = append([]int(nil), got...)
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		fail("kept %v, want %v", got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			fail("kept %v, want %v", got, want)
		}
	}
	return tie
}

func TestSelectLargestMatchesSort(t *testing.T) {
	w := []float64{0: 5, 1: -4, 2: 4, 3: 3, 4: -3, 5: 3, 6: 2, 7: 1e-9, 8: -7, 9: 0}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	cases := []struct {
		name     string
		cand     []int
		drop     float64
		limit    int
		always   int
		straddle bool
	}{
		{"no tie near the cut", all, 0.5, 1, -1, false},                         // 7 | 5
		{"tie just above the cut", all, 0.5, 4, -1, false},                      // 7 5 4 4 | 3
		{"tie just below the cut", all, 0.5, 2, -1, false},                      // 7 5 | 4 4
		{"tie straddles the cut", all, 0.5, 3, -1, true},                        // 7 5 4 | 4
		{"three-way tie, one kept", all, 0.5, 5, -1, true},                      // 7 5 4 4 3 | 3 3
		{"three-way tie, two kept", all, 0.5, 6, -1, true},                      // 7 5 4 4 3 3 | 3
		{"tie ends at the cut", all, 0.5, 7, -1, false},                         // 7 5 4 4 3 3 3 | 2
		{"limit equals the candidates", all, 0.5, 8, -1, false},                 // fast path
		{"limit beyond the candidates", all, 0.5, 100, -1, false},               // fast path
		{"everything dropped", all, 10, 3, -1, false},                           // nothing survives the drop
		{"always below the drop", all, 0.5, 2, 7, false},                        // 1e-9 + 7 5 | 4
		{"always zero", all, 0.5, 2, 9, false},                                  // 0 + 7 5 | 4
		{"always the largest", all, 0.5, 1, 8, false},                           // 7 + 5 | 4
		{"always beside a straddling tie", all, 0.5, 2, 0, true},                // 5 + 7 4 | 4
		{"always takes one of a tie", all, 0.5, 3, 1, false},                    // −4 + 7 5 4 | 3
		{"always no candidate", []int{1, 2, 3, 4, 5, 6}, 0.5, 2, 0, true},       // limit+1 of the others: 4 4 3 | 3 3
		{"always no candidate, no tie", []int{1, 3, 6, 7, 8}, 0.5, 1, 0, false}, // 7 4 | 3
		{"limit zero with always", all, 0.5, 0, 8, false},
		{"limit zero", all, 0.5, 0, -1, false},
		{"one candidate", []int{3}, 0.5, 1, -1, false},
		{"no candidates", nil, 0.5, 1, -1, false},
	}
	var sel selector
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkSelect(t, &sel, tc.cand, w, tc.drop, tc.limit, tc.always); got != tc.straddle {
				t.Fatalf("tie straddles the cut: %v, the case was written for %v", got, tc.straddle)
			}
		})
	}
	// Every (limit, always) over the table's vector.
	for limit := 0; limit <= len(all)+1; limit++ {
		for always := -1; always < len(w); always++ {
			checkSelect(t, &sel, all, w, 0.5, limit, always)
		}
	}
}

// TestSelectLargestRandomTies draws candidate magnitudes from a handful of
// values, so that ties at, above and below the cut are the rule.
func TestSelectLargestRandomTies(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sel selector
	straddled := 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(40)
		w := make([]float64, n)
		levels := 1 + rng.Intn(6)
		for j := range w {
			w[j] = float64(1+rng.Intn(levels)) * float64(1-2*rng.Intn(2))
			if rng.Intn(8) == 0 {
				w[j] = rng.NormFloat64()
			}
		}
		cand := rng.Perm(n)[:1+rng.Intn(n)]
		always := -1
		switch rng.Intn(3) {
		case 0:
			always = cand[rng.Intn(len(cand))]
		case 1:
			always = rng.Intn(n) // perhaps not a candidate
		}
		limit := rng.Intn(n + 2)
		drop := 0.5 * float64(rng.Intn(3))
		if checkSelect(t, &sel, cand, w, drop, limit, always) {
			straddled++
		}
	}
	if straddled < 100 {
		t.Fatalf("only %d of 4000 trials had a tie straddling the cut; the fallback is barely tested", straddled)
	}
}

// TestNthLargest checks the partition contract on inputs full of ties.
func TestNthLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(1 + rng.Intn(12)))
		}
		sorted := append([]float64(nil), a...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		k := rng.Intn(n)
		if got := nthLargest(a, k); got != sorted[k] {
			t.Fatalf("nthLargest(%v, %d) = %g, want %g", a, k, got, sorted[k])
		}
		for i, v := range a {
			if (i < k && v < sorted[k]) || (i > k && v > sorted[k]) {
				t.Fatalf("after nthLargest(k=%d): %v is not partitioned around %g", k, a, sorted[k])
			}
		}
	}
}

// FuzzSelectLargest decodes (limit, always, drop level, magnitudes) from
// the input; magnitudes come from a 4-value alphabet so the fuzzer finds
// ties at once.
func FuzzSelectLargest(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 2, 3, 3, 3, 0})
	f.Add([]byte{2, 1, 1, 3, 3, 3, 3})
	f.Add([]byte{9, 255, 0, 1, 2})
	f.Add([]byte{0, 2, 2, 0, 0, 0})
	seed := make([]byte, 3+8)
	seed[0] = 1
	binary.LittleEndian.PutUint64(seed[3:], math.Float64bits(2.5))
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 200 {
			return
		}
		limit := int(data[0] % 32)
		body := data[3:]
		w := make([]float64, len(body))
		for j, b := range body {
			w[j] = float64(b%4) * float64(1-2*int(b>>7))
		}
		always := int(data[1]) - 1 // −1, or a column that may lie outside the candidates
		if always >= len(w) {
			always = len(w) - 1
		}
		cand := make([]int, 0, len(w))
		for j := range w {
			if data[2]&1 == 0 || j%3 != 0 { // optionally leave every third column out
				cand = append(cand, j)
			}
		}
		drop := 0.5 * float64(data[2]>>1%3)
		var sel selector
		checkSelect(t, &sel, cand, w, drop, limit, always)
	})
}
