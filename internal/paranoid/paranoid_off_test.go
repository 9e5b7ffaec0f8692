//go:build !paranoid

package paranoid

import (
	"math"
	"testing"
)

// Without the build tag every check must be an inert no-op: the helpers
// are called from kernel hot paths and rely on dead-code elimination of
// the `if !Enabled` branch for zero overhead.
func TestDisabledByDefault(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the paranoid build tag")
	}
	// None of these may panic, however violated the invariant is.
	CheckFinite("nan", math.NaN())
	CheckFiniteVec("inf", []float64{math.Inf(1)})
	CheckMinLen("short", 0, 10)
	Check(false, "always false")
}
