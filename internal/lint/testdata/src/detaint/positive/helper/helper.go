// Package helper simulates a non-kernel utility package: the
// nondeterminism sources live HERE, outside the kernel scope, where they
// are not findings themselves, and only their float results flow into
// the kernel fixture package. Every function below must be summarized as
// tainted by the interprocedural fixpoint.
package helper

import "time"

// Seed derives a float directly from the wall clock.
func Seed() float64 {
	return float64(time.Now().UnixNano())
}

// Jitter launders Seed through a local variable — taint must survive
// the assignment and the transitive call.
func Jitter() float64 {
	j := Seed()
	return j / 1e9
}

// MapSum accumulates floats in map iteration order: the sum depends on
// the (randomized) range order, a taint source in its own right.
func MapSum(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
