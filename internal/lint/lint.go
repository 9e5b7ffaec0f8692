// Package lint is the project's custom static-analysis suite: a small,
// dependency-free analyzer framework (go/ast + go/types only) plus
// project-specific analyzers that enforce the numerical and concurrency
// invariants this codebase promises — bit-identical reductions at any
// worker count, dimension-checked kernel entry points, no silent float
// equality, no discarded or untyped errors, no unjoined goroutines.
//
// The per-package analyzers (All):
//
//	floatcmp    ==/!= between float operands (exact-zero tests excepted)
//	dimguard    exported sparse kernels indexing caller slices without a
//	            dimension check near the top
//	sharedwrite writes to captured variables inside par worker closures
//	            without a per-worker index
//	errdrop     discarded error returns
//
// The whole-program analyzers (AllProgram), over a call graph and
// per-function control-flow graphs:
//
//	detaint     map iteration, time or math/rand feeding float state in
//	            the kernel packages, in the function or through calls
//	errtype     fresh untyped errors crossing the ilu, krylov, dist,
//	            ckpt and partition package boundaries
//	waitleak    goroutines in par and dist not joined on every path
//
// False positives are suppressed, with a mandatory reason, by
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. An ignore
// without a reason is itself reported, and so is one that suppresses
// nothing. The driver is cmd/parapre-lint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a loaded package.
type Analyzer struct {
	Name string
	Doc  string

	// Applies restricts the analyzer to certain import paths; nil means
	// every package. The driver consults it; tests calling Run directly
	// on fixture packages bypass it.
	Applies func(pkgPath string) bool

	Run func(p *Package) []Diagnostic
}

// All returns the syntactic (per-package) analyzer suite in reporting
// order. The interprocedural suite is AllProgram.
func All() []*Analyzer {
	return []*Analyzer{FloatCmp, DimGuard, SharedWrite, ErrDrop}
}

// KnownAnalyzerNames returns every analyzer name a //lint:ignore
// directive may legally reference: the syntactic suite, the
// interprocedural suite, and the framework's own "lint" channel. The
// full set is always legal in directives, regardless of which analyzers
// a particular run executes — otherwise a partial run would misreport
// the other suite's directives as unknown.
func KnownAnalyzerNames() map[string]bool {
	known := map[string]bool{"lint": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range AllProgram() {
		known[a.Name] = true
	}
	return known
}

// RunPackage runs every applicable analyzer on p and returns the
// diagnostics that survive //lint:ignore filtering, plus a diagnostic for
// each malformed ignore comment.
func RunPackage(p *Package, analyzers []*Analyzer) []Diagnostic {
	ig, malformed := CollectIgnores([]*Package{p}, KnownAnalyzerNames())
	return append(malformed, RunPackageWith(p, analyzers, ig)...)
}

// RunPackageWith is RunPackage against a caller-owned suppression index,
// so a whole-module run can share one index (and audit it afterwards).
func RunPackageWith(p *Package, analyzers []*Analyzer, ig *Ignores) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(p.Path) {
			continue
		}
		out = append(out, ig.Filter(a.Run(p))...)
	}
	return out
}

// diag builds a Diagnostic at pos.
func diag(p *Package, pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
}

// isFloat reports whether t is (an alias of) a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isFloatDeep reports whether t is a float or a slice/array nesting of
// floats ([]float64, [][]float64, [4]float32, …).
func isFloatDeep(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Slice:
		return isFloatDeep(u.Elem())
	case *types.Array:
		return isFloatDeep(u.Elem())
	}
	return false
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for indirect calls, conversions and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos <= node.End()
}
