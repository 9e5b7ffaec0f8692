package gateway

import (
	"encoding/json"
	"runtime"
	"testing"
)

// FuzzSpecDecode drives the bytes of a POST body down the path a worker
// would take them: decode, Validate, admission and — for an upload of at
// most 4 KiB — BuildProblem. Nothing on that path may panic, whatever
// admission lets through must build into a consistent system or fail with
// an error, and what it refuses must have been refused from the spec's
// numbers alone, without an allocation that grows with size or procs. The
// seed corpus under testdata/fuzz holds the benchmark's four hot specs, a
// cold one, an upload and three malformed bodies.
func FuzzSpecDecode(f *testing.F) {
	const budget = 1 << 20 // admits 1024 unknowns
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := spec.Validate()
		if err == nil {
			err = spec.admit(budget)
		}
		runtime.ReadMemStats(&after)
		// The one buffer of note is MatrixSize's 64 KiB line scanner.
		if grew := after.TotalAlloc - before.TotalAlloc; err != nil && grew > 256<<10 {
			t.Fatalf("refused (%v) after allocating %d bytes", err, grew)
		}
		if err != nil {
			return
		}
		_ = spec.SessionKey()
		if cfg := spec.BuildConfig(); cfg.P != spec.Procs || cfg.P < 1 {
			t.Fatalf("admitted with procs = %d, config P = %d", spec.Procs, cfg.P)
		}
		if spec.Matrix == "" || len(spec.Matrix)+len(spec.RHS) > 4<<10 {
			return
		}
		prob, err := spec.BuildProblem()
		if err != nil {
			return
		}
		if prob.A.Rows != prob.A.Cols || len(prob.B) != prob.A.Rows || prob.A.Rows < spec.Procs || prob.A.Rows > budget/admitBytesPerUnknown {
			t.Fatalf("built a %d×%d system with %d right-hand-side entries for %d processors",
				prob.A.Rows, prob.A.Cols, len(prob.B), spec.Procs)
		}
		if err := prob.A.CheckValid(); err != nil {
			t.Fatal(err)
		}
	})
}
