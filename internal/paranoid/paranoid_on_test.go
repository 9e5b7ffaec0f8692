//go:build paranoid

package paranoid

import (
	"math"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a paranoid panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("paranoid panics must carry string messages, got %T", r)
		}
		if !strings.HasPrefix(msg, "paranoid: ") || !strings.Contains(msg, substr) {
			t.Fatalf("panic message %q does not match %q", msg, substr)
		}
	}()
	f()
}

func TestEnabledUnderTag(t *testing.T) {
	if !Enabled {
		t.Fatal("Enabled must be true under the paranoid build tag")
	}
}

func TestCheckFinite(t *testing.T) {
	CheckFinite("ok value", 1.5) // must not panic
	mustPanic(t, "inner product", func() { CheckFinite("inner product", math.NaN()) })
	mustPanic(t, "norm", func() { CheckFinite("norm", math.Inf(-1)) })
}

func TestCheckFiniteVec(t *testing.T) {
	CheckFiniteVec("clean", []float64{0, -1, 2.5})
	mustPanic(t, "poisoned[2]", func() { CheckFiniteVec("poisoned", []float64{0, 1, math.NaN()}) })
}

func TestCheckMinLen(t *testing.T) {
	CheckMinLen("at least", 5, 4)
	mustPanic(t, "output", func() { CheckMinLen("output", 3, 4) })
}

func TestCheck(t *testing.T) {
	Check(true, "never seen")
	mustPanic(t, "segment 3", func() { Check(false, "segment %d out of order", 3) })
}
