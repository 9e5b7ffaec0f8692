package negative

// Handled (or explicitly discarded) uses of the supervised-runtime API
// shapes: errdrop must stay silent on all of these.

type comm struct{}

func (comm) RecvErr(from, tag int) ([]float64, error) { return nil, nil }

type system struct{}

func (system) Exchange(c comm, ext []float64) error     { return nil }
func (system) MatVec(c comm, y, x, ext []float64) error { return nil }

func runOpts(p int, fn func(comm)) ([]int, error) { return nil, nil }

// Receive propagates the typed communication error.
func Receive(c comm) ([]float64, error) {
	got, err := c.RecvErr(0, 1)
	if err != nil {
		return nil, err
	}
	return got, nil
}

// Step checks both exchange errors.
func Step(c comm, s system, y, x, ext []float64) error {
	if err := s.Exchange(c, ext); err != nil {
		return err
	}
	return s.MatVec(c, y, x, ext)
}

// Launch explicitly discards the runtime report in an assignment — the
// deliberate-discard idiom the analyzer accepts.
func Launch() []int {
	stats, _ := runOpts(4, func(comm) {})
	return stats
}
