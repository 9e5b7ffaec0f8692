package gateway

import (
	"errors"
	"testing"

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
