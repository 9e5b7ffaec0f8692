// A simulated kernel package (internal/ilu): the clock and the global
// random source feeding float state inside the function itself.
package ilu

import (
	"math/rand"
	"time"
)

// Perturb injects the global random source into a numeric slice.
func Perturb(x []float64) {
	for i := range x {
		x[i] += rand.Float64() // WANT detaint
	}
}

// Stamp leaks the wall clock into a numeric result.
func Stamp() float64 {
	return float64(time.Now().UnixNano()) // WANT detaint
}
