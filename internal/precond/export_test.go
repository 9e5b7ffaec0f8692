package precond

import (
	"parapre/internal/dsys"
	"parapre/internal/schur"
	"parapre/internal/sparse"
)

// LocalSchur is the expanded Schur block Schur 2's interface operator
// multiplies by.
func (p *Schur2) LocalSchur() schur.Local { return p.sExp }

// ExpandedSchurCSR assembles the expanded Schur block NewSchur2 builds for
// s, as a CSR of its own.
func ExpandedSchurCSR(s *dsys.System, opts Schur2Options) (*sparse.CSR, error) {
	_, sExp, err := expandedSchur(s, opts)
	return sExp, err
}
