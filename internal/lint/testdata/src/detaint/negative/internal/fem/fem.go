// A simulated kernel package (internal/fem): maps used in ways detaint
// must stay silent on.
package fem

import "sort"

// GatherSorted drains a map through a sorted key slice: deterministic.
func GatherSorted(m map[int]float64, out []float64) {
	keys := make([]int, 0, len(m))
	for k := range m { // collecting int keys only — no float flow
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for i, k := range keys {
		out[i] = m[k]
	}
}

// CountMembers uses a map for membership only.
func CountMembers(set map[int]bool, is []int) int {
	n := 0
	for _, i := range is {
		if set[i] {
			n++
		}
	}
	return n
}

// MaxDegree ranges a map into an int accumulator: order-independent and
// not floating-point.
func MaxDegree(deg map[int]int) int {
	m := 0
	for _, d := range deg {
		if d > m {
			m = d
		}
	}
	return m
}
