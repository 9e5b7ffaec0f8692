package precond

import "math"

// CommErrRecorder is implemented by preconditioners whose Apply runs
// distributed exchanges that can fail (the Schur-type inner solves, the
// Schwarz and overlapping-block halos) — by embedding a dsys.CommErr,
// which says what they do on a failure. Session.Concurrent reads the same
// fact off the type: these, and only these, communicate inside Apply.
type CommErrRecorder interface {
	// TakeCommErr returns the first communication error recorded since
	// the last call and clears it.
	TakeCommErr() error
}

// poisonNaN floods v with NaN so the next replicated norm detects the
// failure as a breakdown on every rank simultaneously.
func poisonNaN(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}
