// Positive allocfree fixture: every allocation construct the analyzer
// claims to see, spread across direct sites, a transitive cone, and a
// par fan-out body. Lines without a WANT marker exercise the deliberate
// exemptions (pruned constant branches, panic arguments, fan-out closure
// creation).
package krylov

import (
	"fmt"

	par "parapre/internal/lint/testdata/src/allocfree/positive/internal/par"
)

const debug = false

type big struct{ a [64]float64 }

type box struct{ v any }

// scratch sits in Hot's cone: its allocation is charged to the root.
func scratch(n int) []float64 {
	return make([]float64, n) // WANT allocfree
}

// sink has an interface parameter: concrete float arguments box.
func sink(v any) {}

//lint:allocfree fixture claim: the transitive cone must be proven clean
func Hot(x []float64) float64 {
	s := scratch(len(x))
	copy(s, x)
	return s[0]
}

//lint:allocfree fixture claim: every direct construct below must be flagged
func Direct(x []float64) {
	y := make([]float64, len(x)) // WANT allocfree
	y = append(y, 1)             // WANT allocfree
	p := new(big)                // WANT allocfree
	q := &big{}                  // WANT allocfree
	m := map[int]int{}           // WANT allocfree
	lits := []float64{1, 2}      // WANT allocfree
	f := func() {}               // WANT allocfree
	go f()                       // WANT allocfree
	fmt.Println()                // WANT allocfree
	var bx box
	bx.v = x[0] // WANT allocfree
	sink(x[0])  // WANT allocfree
	p.a[0] = 1
	q.a[0] = 2
	m[0] = len(lits)
	x[0] = y[0]
	if debug {
		waste := make([]float64, 9) // pruned on the default build: silent
		_ = waste
	}
	if len(x) == 0 {
		panic(fmt.Sprintf("empty input %d", len(x))) // panic args exempt
	}
}

//lint:allocfree fixture claim: fan-out closure exempt, body still scanned
func Fan(x []float64) {
	par.For(len(x), func(i int) {
		x[i] = float64(i) // clean body: no finding
	})
	par.For(len(x), func(i int) {
		buf := make([]float64, 1) // WANT allocfree
		x[i] = buf[0]
	})
}

// gbuf is a generic type: a call of a method of one of its instances is
// an edge to the method's declaration.
type gbuf[T int32 | uint16] struct{ c []T }

func (g *gbuf[T]) grow(n int) []T {
	return make([]T, n) // WANT allocfree
}

func gscratch[T int32 | uint16](n int) []T {
	return make([]T, n) // WANT allocfree
}

//lint:allocfree fixture claim: generic functions and methods of generic types are in the cone
func Generic(n int) int {
	var g gbuf[uint16]
	return len(g.grow(n)) + len(gscratch[int32](n))
}
