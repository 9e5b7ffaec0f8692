// Package precond implements the parallel algebraic preconditioners the
// paper compares (§2, §4.4):
//
//	Block 1  — block Jacobi with ILU(0) subdomain solves
//	Block 2  — block Jacobi with ILUT subdomain solves
//	Schur 1  — Schur-complement enhanced: a few distributed GMRES
//	           iterations on the global interface system, block-Jacobi
//	           preconditioned by the trailing ILUT factors; local B-solves
//	           by a few ILUT-preconditioned GMRES iterations
//	Schur 2  — expanded Schur complement (group-independent-set local
//	           interfaces + interdomain interfaces) solved by a few
//	           distributed GMRES iterations preconditioned by ILU(0) of
//	           the local expanded Schur matrix, with the ARMS reduction as
//	           approximate subdomain solver
//
// plus the overlapping additive Schwarz preconditioner of §5.2 (with
// optional coarse-grid correction) used as the comparison point for Test
// Case 1.
//
// Every preconditioner is applied collectively: all ranks call Apply at
// the same point of the outer FGMRES iteration. The Schur variants
// perform inner distributed iterations inside Apply, which is why the
// outer accelerator must be the flexible FGMRES.
package precond

import (
	"fmt"
	"slices"
	"strings"

	"parapre/internal/dist"
)

// Preconditioner is one rank's preconditioner: z = M⁻¹·r over the rank's
// owned unknowns. Implementations that communicate (the Schur and Schwarz
// variants) must be applied collectively by all ranks. An Apply works in
// vectors and inner Krylov workspaces its rank leases for the solve from
// a sync.Pool the preconditioner owns (dist.Comm.Lease), so a kept
// preconditioner holds no scratch between solves. Only the purely local
// kinds — every Block (Block 1, Block 2, Block IC, RCM-ordered or not) —
// write nothing of their own in Apply and may serve concurrent solves. The communicating kinds record their first
// exchange failure (CommErrRecorder) and Schwarz's fast Poisson solver
// works in buffers it keeps, so their solves must be serialized, as
// core.Session does. SetupFlops is the footprint a set-up is charged by,
// in flops of one sweep over what the preconditioner built (zero for the
// identity).
type Preconditioner interface {
	Apply(c *dist.Comm, z, r []float64)
	Name() string
	SetupFlops() float64
}

// Kind selects one of the paper's preconditioners by name.
type Kind string

// The preconditioner names used throughout the benchmarks, matching the
// paper's notation.
const (
	KindBlock1 Kind = "Block 1"
	KindBlock2 Kind = "Block 2"
	// KindBlockIC is block Jacobi with incomplete Cholesky — the SPD
	// preconditioner for the distributed CG baseline.
	KindBlockIC Kind = "Block IC"
	KindSchur1  Kind = "Schur 1"
	KindSchur2  Kind = "Schur 2"
	KindNone    Kind = "None"
)

// HasBlockVariants reports whether k has the RCM-ordered and the
// overlapping variants (NewBlockOrdered, BuildOverlapBlocks): Block 1 and
// Block 2. Every front end and the solve read this one predicate, so a
// spec's RCM or overlap on any other kind is ignored alike everywhere.
func (k Kind) HasBlockVariants() bool { return k == KindBlock1 || k == KindBlock2 }

// Fallback is the resilient escalation ladder's alternative to k: the
// Schur variants fall back to the cheap, structurally different Block 2,
// everything else escalates to the paper's most robust method, Schur 1.
func (k Kind) Fallback() Kind {
	if k == KindSchur1 || k == KindSchur2 {
		return KindBlock2
	}
	return KindSchur1
}

// kinds lists every preconditioner name, the paper's four first.
var kinds = []Kind{KindBlock1, KindBlock2, KindSchur1, KindSchur2,
	KindBlockIC, KindNone}

// Kinds returns every preconditioner name, the paper's four first: what
// ParseKind accepts, and so what a front end's help and an
// UnknownKindError list.
func Kinds() []Kind { return slices.Clone(kinds) }

// KindNames is Kinds as one comma-separated string.
func KindNames() string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

// UnknownKindError reports a preconditioner name that is none of the
// Kind constants; its message lists them.
type UnknownKindError struct {
	Name string
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("precond: unknown preconditioner %q (have %s)", e.Name, KindNames())
}

// ParseKind resolves a preconditioner name as a user spells it — case is
// ignored — to its Kind, or returns an *UnknownKindError. Every string
// that becomes a Kind passes through here: a bare conversion of a name
// that matches nothing is a Kind no constructor knows.
func ParseKind(name string) (Kind, error) {
	for _, k := range kinds {
		if strings.EqualFold(name, string(k)) {
			return k, nil
		}
	}
	return "", &UnknownKindError{Name: name}
}

// identity is the trivial preconditioner (used by baselines).
type identity struct{}

// NewIdentity returns the identity preconditioner.
func NewIdentity() Preconditioner { return identity{} }

func (identity) Apply(c *dist.Comm, z, r []float64) { copy(z, r) }
func (identity) Name() string                       { return string(KindNone) }
func (identity) SetupFlops() float64                { return 0 }
