package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// errtype: typed errors at package boundaries. The factorization and
// solver packages publish documented error types (ilu.ZeroPivotError,
// krylov.BreakdownError, the dist fault taxonomy) precisely so callers
// can match on them; an ad-hoc errors.New or fmt.Errorf that escapes the
// package boundary silently breaks that contract — callers are reduced
// to string matching.
//
// For each audited package, the analyzer computes the functions
// reachable from the package's exported API (exported functions and
// methods, via the call graph restricted to the package) and flags
// return statements in them that send a fresh untyped error across the
// boundary:
//
//	return errors.New("…")
//	return fmt.Errorf("…")        // without %w: wraps nothing
//	err := errors.New("…"); … ; return err
//
// Allowed: package-level sentinels (errors.New at package scope is the
// sentinel idiom), typed error constructors, fmt.Errorf with %w (it
// wraps an existing — presumed typed — error), and errors passed through
// from callees.

// errTypePkgs are the packages whose boundaries the analyzer audits.
var errTypePkgs = map[string]bool{
	"ilu":       true,
	"krylov":    true,
	"dist":      true,
	"ckpt":      true,
	"partition": true,
}

var ErrType = &ProgramAnalyzer{
	Name: "errtype",
	Doc:  "errors crossing the ilu, krylov, dist, ckpt and partition package boundaries must be documented typed errors or wrap them",
	Run:  runErrType,
}

func runErrType(prog *Program) []Diagnostic {
	g := prog.CallGraph()
	nodes := sortedNodes(g)

	// Reachability from each audited package's exported API, restricted
	// to within-package edges: an unexported helper's fresh error only
	// matters if an exported path can surface it.
	reachable := map[*CGNode]bool{}
	var walk func(n *CGNode)
	walk = func(n *CGNode) {
		if reachable[n] {
			return
		}
		reachable[n] = true
		for _, e := range n.Out {
			if e.Callee != nil && e.Callee.Pkg == n.Pkg {
				walk(e.Callee)
			}
		}
	}
	for _, n := range nodes {
		if !errTypePkgs[lastInternalPkg(n.Pkg.Path)] {
			continue
		}
		if n.Fn.Exported() || exportedRecvMethod(n.Fn) {
			walk(n)
		}
	}

	var out []Diagnostic
	for _, n := range nodes {
		if !reachable[n] || !errTypePkgs[lastInternalPkg(n.Pkg.Path)] {
			continue
		}
		out = append(out, errTypeFunc(n)...)
	}
	sortDiags(out)
	return out
}

// exportedRecvMethod reports whether fn is a method (of any name) on an
// exported type — part of the package API even when the method itself is
// promoted through an exported interface.
func exportedRecvMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported() && fn.Exported()
	}
	return false
}

// errTypeFunc flags fresh untyped errors returned by one function.
func errTypeFunc(node *CGNode) []Diagnostic {
	p := node.Pkg
	pkgName := lastInternalPkg(p.Path)

	// First pass: local variables assigned a fresh untyped error.
	freshVars := map[types.Object]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.ObjectOf(id)
			if obj == nil || obj.Parent() == p.Types.Scope() {
				continue // package-level sentinel assignment: not local
			}
			if freshUntypedError(p, as.Rhs[i]) {
				freshVars[obj] = true
			} else if _, isCall := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); isCall {
				// Reassigned from a callee: no longer fresh-untyped.
				delete(freshVars, obj)
			}
		}
		return true
	})

	var out []Diagnostic
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			tv, ok := p.Info.Types[e]
			if !ok || tv.Type == nil || !isErrorType(tv.Type) {
				continue
			}
			fresh := freshUntypedError(p, e)
			if !fresh {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && freshVars[obj] {
						fresh = true
					}
				}
			}
			if fresh {
				out = append(out, diag(p, e.Pos(), "errtype",
					"ad-hoc untyped error crosses the %q package boundary; return a documented typed error (see the package's errors.go) or wrap a typed cause with %%w", pkgName))
			}
		}
		return true
	})
	return out
}

// freshUntypedError reports whether e constructs a fresh untyped error:
// errors.New(…), or fmt.Errorf(…) whose format has no %w verb.
func freshUntypedError(p *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return true
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		if len(call.Args) == 0 {
			return true
		}
		if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return !strings.Contains(constant.StringVal(tv.Value), "%w")
		}
		return true // non-constant format: assume it wraps nothing
	}
	return false
}

// isErrorType reports whether t is the error interface.
func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}
