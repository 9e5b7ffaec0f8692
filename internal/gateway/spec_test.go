package gateway

import (
	"errors"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/precond"
)

// A preconditioner name is matched without regard to case and stored as
// the library spells it, so two spellings of one spec share a session; a
// name that matches nothing carries the typed error.
func TestSpecPrecondIsNormalized(t *testing.T) {
	spec := &Spec{Case: "tc1-poisson2d", Precond: "schur 2"}
	if err := spec.Validate(); err != nil || spec.Precond != "Schur 2" {
		t.Fatalf("Validate: precond %q, err %v; want \"Schur 2\"", spec.Precond, err)
	}
	if got := spec.BuildConfig().Precond; got != precond.KindSchur2 {
		t.Fatalf("BuildConfig: precond %q", got)
	}
	var unknown *precond.UnknownKindError
	if err := (&Spec{Case: "tc1-poisson2d", Precond: "Block 9"}).Validate(); !errors.As(err, &unknown) {
		t.Fatalf("Validate(\"Block 9\"): %v, want a *precond.UnknownKindError", err)
	}
}

// A machine name is matched under every spelling dist.MachineByName takes
// and stored as the model names itself, so the spellings — the default's
// among them — share a session; a name that matches nothing is refused.
func TestSpecMachineIsNormalized(t *testing.T) {
	for spelling, want := range map[string]string{
		"": "LinuxCluster", "cluster": "LinuxCluster", "linuxcluster": "LinuxCluster",
		"origin": "Origin3800", "ORIGIN3800": "Origin3800", "origin3800unloaded": "Origin3800Unloaded",
	} {
		spec := &Spec{Case: "tc1-poisson2d", Machine: spelling}
		if err := spec.Validate(); err != nil || spec.Machine != want {
			t.Errorf("Validate: machine %q became %q, err %v; want %q", spelling, spec.Machine, err, want)
			continue
		}
		if got := spec.BuildConfig().Machine.Name; got != want {
			t.Errorf("BuildConfig: machine %q runs on %s, want %s", spelling, got, want)
		}
		canonical := &Spec{Case: "tc1-poisson2d", Machine: want}
		if err := canonical.Validate(); err != nil || canonical.SessionKey() != spec.SessionKey() {
			t.Errorf("machine %q and %q: session keys differ (err %v)", spelling, want, err)
		}
	}
	var unknown *dist.UnknownMachineError
	if err := (&Spec{Case: "tc1-poisson2d", Machine: "orgin"}).Validate(); !errors.As(err, &unknown) {
		t.Errorf("Validate(machine \"orgin\"): %v, want a *dist.UnknownMachineError", err)
	}
}

// Every name precond.Kinds lists — what the help of the CLIs and an
// UnknownKindError print — is a spec the gateway validates and a session
// core builds: no kind is listed but not constructible.
func TestEveryKindIsBuildable(t *testing.T) {
	for _, kind := range precond.Kinds() {
		spec := &Spec{Case: "tc1-poisson2d", Size: 9, Procs: 2, Precond: string(kind)}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", kind, err)
			continue
		}
		b := spec.build()
		prob, err := b.problem()
		if err == nil {
			_, err = b.session(prob)
		}
		if err != nil {
			t.Errorf("%s: NewSession: %v", kind, err)
		}
	}
}

// A field left at zero and the same field spelled as the default it stands
// for are one spec: Validate stores the case's default size and the
// solver's default iterations, restart and tolerance, so both spellings hash
// to one session key and one problem key, and the gateway builds one
// session on one problem for them.
func TestSpecSpellingsShareOneKey(t *testing.T) {
	c, err := cases.ByName("tc1-poisson2d")
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig(4, precond.KindBlock2).Solver
	short := &Spec{Case: c.Name}
	long := &Spec{Case: c.Name, Size: c.DefaultSize, MaxIters: def.MaxIters, Restart: def.Restart, Tol: def.Tol}
	for _, spec := range []*Spec{short, long} {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if short.SessionKey() != long.SessionKey() || short.problemKey() != long.problemKey() {
		t.Fatalf("keys differ: session %s and %s, problem %s and %s",
			short.SessionKey(), long.SessionKey(), short.problemKey(), long.problemKey())
	}

	// A field the solve ignores is a spelling too: RCM and overlap on a
	// kind without block variants, RCM beside overlap, resilience under CG.
	pairs := [][2]*Spec{
		{{Case: c.Name}, {Case: c.Name, Size: c.DefaultSize, MaxIters: def.MaxIters, Restart: def.Restart, Tol: def.Tol}},
		{{Case: c.Name, Precond: "Schur 1"}, {Case: c.Name, Precond: "Schur 1", RCM: true}},
		{{Case: c.Name, Precond: "Block IC"}, {Case: c.Name, Precond: "Block IC", Overlap: 1, RCM: true}},
		{{Case: c.Name, Overlap: 1}, {Case: c.Name, Overlap: 1, RCM: true}},
		{{Case: c.Name, Precond: "Block IC", UseCG: true}, {Case: c.Name, Precond: "Block IC", UseCG: true, Resilient: true}},
	}
	// and what a solve reads is not: RCM on Block 2, and on the Block 2
	// that a resilient Schur 1 falls back to.
	for _, distinct := range [][2]*Spec{
		{{Case: c.Name}, {Case: c.Name, RCM: true}},
		{{Case: c.Name, Precond: "Schur 1", Resilient: true}, {Case: c.Name, Precond: "Schur 1", Resilient: true, RCM: true}},
	} {
		for _, spec := range distinct {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if distinct[0].SessionKey() == distinct[1].SessionKey() {
			t.Errorf("%+v and %+v share a session key", *distinct[0], *distinct[1])
		}
	}

	srv, ts := newTestServer(t, Options{Workers: 1})
	for _, pair := range pairs {
		for _, spec := range pair {
			streamEvents(t, ts, submitOK(t, ts, "alice", spec))
		}
	}
	n := len(pairs)
	if st := srv.sessions.stats(); st.Sessions != n || st.Problems != 1 || st.Misses != int64(n) || st.Hits != int64(n) {
		t.Fatalf("%+v; want %d sessions on one problem, each built once and hit once", st, n)
	}
}
