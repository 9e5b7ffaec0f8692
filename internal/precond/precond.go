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
// kinds — Block 1 and Block 2 (RCM-ordered too), Block ARMS, Block 2P and
// Block IC — write nothing of their own in Apply and may serve concurrent
// solves. The communicating kinds record their first exchange failure
// (CommErrRecorder) and Schwarz's fast Poisson solver works in buffers it
// keeps, so their solves must be serialized, as core.Session does.
type Preconditioner interface {
	Apply(c *dist.Comm, z, r []float64)
	Name() string
}

// Kind selects one of the paper's preconditioners by name.
type Kind string

// The preconditioner names used throughout the benchmarks, matching the
// paper's notation.
const (
	KindBlock1 Kind = "Block 1"
	KindBlock2 Kind = "Block 2"
	// KindBlockARMS is the extension variant: block Jacobi with a
	// multilevel ARMS subdomain solver.
	KindBlockARMS Kind = "Block ARMS"
	// KindBlock2P is block Jacobi with the column-pivoting ILUTP
	// factorization (robust for weak-diagonal subdomain blocks).
	KindBlock2P Kind = "Block 2P"
	// KindBlockIC is block Jacobi with incomplete Cholesky — the SPD
	// preconditioner for the distributed CG baseline.
	KindBlockIC Kind = "Block IC"
	KindSchur1  Kind = "Schur 1"
	KindSchur2  Kind = "Schur 2"
	KindNone    Kind = "None"
)

// kinds lists every preconditioner name, the paper's four first.
var kinds = []Kind{KindBlock1, KindBlock2, KindSchur1, KindSchur2,
	KindBlockARMS, KindBlock2P, KindBlockIC, KindNone}

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
