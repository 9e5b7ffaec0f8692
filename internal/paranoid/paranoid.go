// Package paranoid is the runtime half of the correctness tooling: a set
// of invariant checks over the numerical kernels that are compiled in only
// under the `paranoid` build tag (`go test -tags paranoid ./...`) and are
// constant-folded to empty functions otherwise.
//
// The static analyzers in internal/lint catch invariant violations that
// are visible in the source; this package catches the ones that are only
// visible in the data — a CSR whose column indices were corrupted by
// manual surgery, a NaN escaping an inner product, a neighbor exchange
// buffer of the wrong length. Checks panic with a descriptive message:
// paranoid runs are debugging runs, and the first violated invariant is
// the information we want, not a limping result.
package paranoid

import (
	"fmt"
	"math"
)

// CheckFinite panics if v is NaN or ±Inf. context names the quantity in
// the panic message, e.g. "gmres: H[i,j]".
func CheckFinite(context string, v float64) {
	if !Enabled {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("paranoid: %s is not finite: %v", context, v))
	}
}

// CheckFiniteVec panics if any entry of x is NaN or ±Inf, reporting the
// first offending index.
func CheckFiniteVec(context string, x []float64) {
	if !Enabled {
		return
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("paranoid: %s[%d] is not finite: %v", context, i, v))
		}
	}
}

// CheckMinLen panics if got < want, for at-least-length contracts such as
// kernel output slices.
func CheckMinLen(context string, got, want int) {
	if !Enabled {
		return
	}
	if got < want {
		panic(fmt.Sprintf("paranoid: %s: length %d, want at least %d", context, got, want))
	}
}

// Check panics with the formatted message if cond is false. It is the
// escape hatch for invariants that do not fit the typed helpers.
func Check(cond bool, format string, args ...any) {
	if !Enabled {
		return
	}
	if !cond {
		panic("paranoid: " + fmt.Sprintf(format, args...))
	}
}
