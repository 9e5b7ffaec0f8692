package core

import (
	"fmt"
	"reflect"

	"parapre/internal/dsys"
	"parapre/internal/precond"
)

// Footprint is what the problem's Bytes and the session's count together,
// and the part of it in use (slices at their length). The caller has no
// solve running on the session.
func (s *Session) Footprint() (held, used int64) {
	return footprint(append(s.prob.roots(), s.lay, s.pcs)...)
}

// Components splits what the problem's Bytes and the session's count
// together by what holds it, each counted after the ones before it so that
// a shared array lands in the first: the matrix and the right-hand side,
// the mesh, the layouts (partitions and subdomain systems), the
// preconditioners.
func (s *Session) Components() (ab, mesh, layout, pcs int64) {
	ab, _ = footprint(s.prob.A, s.prob.B)
	withMesh, _ := footprint(s.prob.A, s.prob.B, s.prob.Mesh)
	withLayout, _ := footprint(append(s.prob.roots(), s.lay)...)
	all, _ := s.Footprint()
	return ab, withMesh - ab, withLayout - withMesh, all - withLayout
}

// Ranks returns the session's subdomain systems and its preconditioners,
// rank by rank.
func (s *Session) Ranks() ([]*dsys.System, []precond.Preconditioner) { return s.lay.systems, s.pcs }

// HeldBy is what Bytes counts of roots alone.
func HeldBy(roots ...any) int64 {
	held, _ := footprint(roots...)
	return held
}

// WideIndexArrays lists every slice of int, int64 or uint64 longer than
// min that the problem's Bytes and the session's reach together, by type
// and length.
func (s *Session) WideIndexArrays(min int) []string {
	var wide []string
	w := newWalker()
	w.slice = func(v reflect.Value) {
		switch v.Type().Elem().Kind() {
		case reflect.Int, reflect.Int64, reflect.Uint64:
			if v.Len() > min {
				wide = append(wide, fmt.Sprintf("%s of %d", v.Type(), v.Len()))
			}
		}
	}
	w.count(append(s.prob.roots(), s.lay, s.pcs)...)
	return wide
}
