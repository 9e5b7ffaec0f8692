package positive

// The shapes of the supervised-runtime APIs (Comm.RecvErr,
// dsys.System.Exchange/MatVec, dist.RunOpts): their entire point is the
// error return, so calling them as bare statements is the panicking
// semantics they replaced minus the panic — the worst of both.

type comm struct{}

func (comm) RecvErr(from, tag int) ([]float64, error) { return nil, nil }

type system struct{}

func (system) Exchange(c comm, ext []float64) error     { return nil }
func (system) MatVec(c comm, y, x, ext []float64) error { return nil }

func runOpts(p int, fn func(comm)) ([]int, error) { return nil, nil }

// Receive drops the typed communication error together with the data.
func Receive(c comm) {
	c.RecvErr(0, 1) // WANT errdrop
}

// Step drops both exchange errors: corruption would sail through.
func Step(c comm, s system, y, x, ext []float64) {
	s.Exchange(c, ext)     // WANT errdrop
	s.MatVec(c, y, x, ext) // WANT errdrop
}

// Launch drops the runtime's typed deadlock/crash report.
func Launch() {
	runOpts(4, func(comm) {}) // WANT errdrop
}
