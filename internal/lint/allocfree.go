package lint

import (
	"go/ast"
	"go/types"
)

// allocfree: static zero-allocation proofs. A function annotated
//
//	//lint:allocfree
//
// in its doc comment claims the steady-state contract the dynamic
// testing.AllocsPerRun tests measure: once warmed up, a call allocates
// nothing. This analyzer proves the claim's static twin by walking the
// annotated function's call cone — every statically resolvable callee,
// transitively — and flagging allocation constructs reachable on the
// default build:
//
//	make, new, append, slice/map composite literals, &T{…}
//	interface boxing of non-pointer-shaped values (call args, assigns)
//	fmt.* calls (formatting allocates)
//	closure creation and `go` statements
//
// The contract is steady-state, so three boundaries are deliberate:
//
//   - Indirect calls (injected Op/Prec/Inner function values, interface
//     methods) are the CALLER's obligation, exactly as in the dynamic
//     tests, which inject non-allocating closures. They are not
//     traversed and not flagged.
//   - par fan-out functions (For, ForSegments, Run, SumBlocks) are cone
//     boundaries: the dynamic tests pin Workers=1, where the serial
//     path runs the closure inline. The closure
//     ARGUMENT is therefore not a "closure creation" finding (it does
//     not escape on the serial path), but its body is still scanned —
//     it is the hot loop.
//   - Allocations inside panic(...) arguments are exempt: a panic is
//     terminal, not steady-state.
//
// Reachability is CFG-based with constant-condition pruning, so code
// behind `if paranoid.Enabled` (const false on the default build) is
// invisible — as it is to the compiled binary. Warm-up allocation sites
// (workspace growth, result-history recording) carry reasoned
// //lint:ignore allocfree lines at the site.

var AllocFree = &ProgramAnalyzer{
	Name: "allocfree",
	Doc:  "proves //lint:allocfree functions transitively allocation-free on the default build",
	Run:  runAllocFree,
}

// parBoundaryFuncs are the par fan-out entry points that bound the cone.
var parBoundaryFuncs = map[string]bool{
	"For":         true,
	"ForSegments": true,
	"Run":         true,
	"SumBlocks":   true,
}

func isParBoundary(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return lastInternalPkg(fn.Pkg().Path()) == "par" && parBoundaryFuncs[fn.Name()]
}

func runAllocFree(prog *Program) []Diagnostic {
	g := prog.CallGraph()

	// Roots: annotated declarations, in deterministic order.
	var roots []*CGNode
	for _, node := range sortedNodes(g) {
		if directiveOnDecl(node.Decl, "allocfree") {
			roots = append(roots, node)
		}
	}

	// Live-node sets are root-independent: cache per function.
	liveCache := map[*CGNode]map[ast.Node]bool{}
	liveOf := func(node *CGNode) map[ast.Node]bool {
		if s, ok := liveCache[node]; ok {
			return s
		}
		s := liveNodeSet(prog, node)
		liveCache[node] = s
		return s
	}

	type siteKey struct {
		file string
		line int
		col  int
		msg  string
	}
	seen := map[siteKey]bool{}
	var out []Diagnostic

	for _, root := range roots {
		rootName := FuncDisplayName(root.Fn)
		visited := map[*CGNode]bool{}
		var visit func(node *CGNode)
		visit = func(node *CGNode) {
			if visited[node] {
				return
			}
			visited[node] = true
			live := liveOf(node)
			for _, d := range allocSitesIn(node, live, rootName) {
				k := siteKey{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message}
				if !seen[k] {
					seen[k] = true
					out = append(out, d)
				}
			}
			// Extend the cone along static edges, skipping the par
			// boundary and calls the reachability pruning cut.
			for _, e := range node.Out {
				if e.Callee == nil || isParBoundary(e.Callee.Fn) {
					continue
				}
				if !live[e.Site] {
					continue
				}
				visit(e.Callee)
			}
		}
		visit(root)
	}
	sortDiags(out)
	return out
}

// liveNodeSet returns every AST node that can execute on the default
// build: all nodes nested in the statements (and guarded expressions) of
// CFG-reachable blocks. Closure bodies nested in live statements are
// included — a closure runs on its creator's behalf.
func liveNodeSet(prog *Program, node *CGNode) map[ast.Node]bool {
	cfg := prog.CFGOf(node)
	reach := cfg.Reachable()
	out := map[ast.Node]bool{}
	for _, b := range cfg.Blocks {
		if !reach[b] {
			continue
		}
		for _, s := range b.Stmts {
			ast.Inspect(s, func(m ast.Node) bool {
				if m != nil {
					out[m] = true
				}
				return true
			})
		}
	}
	return out
}

// allocSitesIn scans one function body for allocation constructs on live
// nodes, attributing findings to rootName.
func allocSitesIn(node *CGNode, live map[ast.Node]bool, rootName string) []Diagnostic {
	p := node.Pkg

	var out []Diagnostic
	report := func(pos ast.Node, what string) {
		out = append(out, diag(p, pos.Pos(), "allocfree",
			"%s in the call cone of //lint:allocfree %s", what, rootName))
	}

	// Closure arguments to par fan-out calls are exempt from the
	// closure-creation finding (the serial path runs them inline).
	parArgLits := map[*ast.FuncLit]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(p, call); fn != nil && isParBoundary(fn) {
			for _, a := range call.Args {
				if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					parArgLits[lit] = true
				}
			}
		}
		return true
	})

	ast.Inspect(node.Decl.Body, func(m ast.Node) bool {
		if m == nil || !live[m] {
			// Dead (pruned) nodes report nothing; still descend, since
			// liveness is per-node and costs nothing to re-test.
			return true
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			if !parArgLits[x] {
				report(x, "closure creation allocates")
			}
		case *ast.GoStmt:
			report(x, "`go` allocates a goroutine")
		case *ast.CallExpr:
			return allocCheckCall(p, x, report)
		case *ast.CompositeLit:
			allocCheckComposite(p, x, report)
		case *ast.UnaryExpr:
			allocCheckUnary(p, x, report)
		case *ast.AssignStmt:
			allocCheckBoxing(p, x, report)
		}
		return true
	})
	sortDiags(out)
	return out
}

// allocCheckCall handles builtin allocators, fmt calls, panic exemption
// and interface boxing at call arguments. The bool return feeds
// ast.Inspect: false stops descent (panic arguments are exempt).
func allocCheckCall(p *Package, call *ast.CallExpr, report func(ast.Node, string)) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		obj := p.Info.ObjectOf(id)
		if obj == nil || obj.Pkg() == nil {
			switch id.Name {
			case "panic":
				return false // terminal, not steady-state: exempt args
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "append":
				report(call, "append may grow its backing array")
			}
			return true
		}
	}
	fn := calleeFunc(p, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call, "fmt."+fn.Name()+" formats and allocates")
		return true
	}
	// Boxing at call arguments: a non-pointer-shaped concrete value
	// passed where the (statically resolved) callee takes an interface.
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			checkArgBoxing(p, call, sig, report)
		}
	}
	return true
}

// checkArgBoxing flags concrete non-pointer-shaped arguments passed to
// interface parameters — the conversion heap-allocates the value.
func checkArgBoxing(p *Package, call *ast.CallExpr, sig *types.Signature, report func(ast.Node, string)) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	// Method values resolved through a selector have the receiver bound:
	// call.Args align with params directly in both cases go/types hands
	// us here (Selections methods report the unbound signature's params
	// without the receiver).
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxesAt(p, arg, pt) {
			report(arg, "interface boxing allocates")
		}
	}
}

// boxesAt reports whether passing arg into an interface-typed slot
// heap-allocates: the slot is an interface, the argument's type is
// concrete, and the value is not pointer-shaped (pointers, channels,
// maps and funcs fit in the interface data word directly).
func boxesAt(p *Package, arg ast.Expr, slot types.Type) bool {
	if slot == nil || !types.IsInterface(slot.Underlying()) {
		return false
	}
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type.Underlying()) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// allocCheckComposite flags heap-allocating composite literals: slices
// and maps always allocate backing storage.
func allocCheckComposite(p *Package, lit *ast.CompositeLit, report func(ast.Node, string)) {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(lit, "slice literal allocates")
	case *types.Map:
		report(lit, "map literal allocates")
	}
}

// allocCheckUnary flags &T{…}: taking the address of a fresh composite
// heap-allocates it.
func allocCheckUnary(p *Package, u *ast.UnaryExpr, report func(ast.Node, string)) {
	if u.Op.String() != "&" {
		return
	}
	if _, ok := ast.Unparen(u.X).(*ast.CompositeLit); ok {
		report(u, "&composite literal allocates")
	}
}

// allocCheckBoxing flags assignments that box a concrete
// non-pointer-shaped value into an interface-typed destination.
func allocCheckBoxing(p *Package, as *ast.AssignStmt, report func(ast.Node, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		ltv, ok := p.Info.Types[as.Lhs[i]]
		if !ok {
			// := defines the LHS: its type IS the RHS type, never a
			// boxing conversion.
			continue
		}
		if boxesAt(p, as.Rhs[i], ltv.Type) {
			report(as.Rhs[i], "interface boxing allocates")
		}
	}
}
