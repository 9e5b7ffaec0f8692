// A simulated kernel package (the trailing internal/krylov path element
// puts it in detaint's kernel set). Every call site below looks clean
// inside its function — the sources are in package helper.
package krylov

import helper "parapre/internal/lint/testdata/src/detaint/positive/helper"

// Scale feeds a clock-derived factor into kernel float state.
func Scale(x []float64) {
	f := helper.Jitter() // WANT detaint
	for i := range x {
		x[i] *= f
	}
}

// Weight returns a map-order-dependent sum as kernel output.
func Weight(m map[int]float64) float64 {
	return helper.MapSum(m) // WANT detaint
}
