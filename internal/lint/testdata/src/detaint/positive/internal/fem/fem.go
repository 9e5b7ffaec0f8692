// A simulated kernel package (internal/fem): map iteration feeding float
// state inside the function itself.
package fem

// FlattenMap writes float values out of a map iteration: the output
// ordering depends on Go's randomized map walk.
func FlattenMap(m map[int]float64, out []float64) {
	i := 0
	for _, v := range m { // WANT detaint
		out[i] = v
		i++
	}
}

// SumMap accumulates floats in map order; float addition is not
// associative, so the sum depends on the walk.
func SumMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // WANT detaint
		s += v
	}
	return s
}
