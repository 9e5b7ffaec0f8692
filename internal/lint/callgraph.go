package lint

import (
	"go/ast"
	"go/types"
)

// An approximate static call graph over the loaded packages. Nodes are
// the declared functions and methods of module-internal packages; edges
// are the statically resolvable calls between them. Calls the graph
// cannot resolve to a declaration — through function-typed values
// (parameters, struct fields, locals), interface method dispatch — mark
// the caller HasIndirect instead of growing edges: the interprocedural
// analyzers each state how they treat that boundary (allocfree treats an
// injected operator as the caller's obligation, mirroring the dynamic
// AllocsPerRun tests, which inject non-allocating closures; detaint stops
// propagation there).
//
// Function literals do not get nodes of their own: a FuncLit's body
// belongs to its enclosing declaration, so calls inside a closure are
// edges out of the declaring function — the right attribution for cone
// and taint analyses, where the closure runs on behalf of its creator.

// CallKind distinguishes how a call site transfers control.
type CallKind int

const (
	CallNormal CallKind = iota
	CallDefer           // defer f(...)
	CallGo              // go f(...)
)

// CGEdge is one statically resolved call.
type CGEdge struct {
	Site   *ast.CallExpr
	Kind   CallKind
	Callee *CGNode     // non-nil for module functions with a body
	Ext    *types.Func // non-nil for functions outside the loaded declarations (stdlib)
}

// CGNode is one declared function or method.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Out []CGEdge

	// HasIndirect records at least one call through a function value or
	// an interface method — a call the static graph cannot resolve.
	HasIndirect bool

	// AddressTaken records a use of the function outside call position
	// (stored, passed, compared): it may be invoked through any
	// function-typed value of matching signature.
	AddressTaken bool
}

// CallGraph is the whole-program graph plus the indexes the analyzers
// navigate it with.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
}

// NodeOf returns the node of fn, or nil when fn has no loaded
// declaration.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode { return g.Nodes[fn] }

// buildCallGraph constructs the graph over the given packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*CGNode{}}

	// First pass: a node per declaration, so edges can resolve forward
	// references and cross-package calls.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &CGNode{Fn: fn, Decl: fd, Pkg: p}
			}
		}
	}

	// Second pass: edges and indirect/address-taken marks.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				node := g.Nodes[fn]
				if node == nil {
					continue
				}
				g.addEdges(node, p, fd.Body)
			}
		}
	}
	return g
}

// addEdges walks one function body recording call edges on node.
func (g *CallGraph) addEdges(node *CGNode, p *Package, body ast.Node) {
	kindOf := map[*ast.CallExpr]CallKind{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			kindOf[st.Call] = CallDefer
		case *ast.GoStmt:
			kindOf[st.Call] = CallGo
		case *ast.CallExpr:
			g.addCall(node, p, st, kindOf[st])
		}
		return true
	})

	// Address-taken: find function-object uses that are not the Fun of a
	// call expression (and not the name in its own declaration).
	callFuns := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				callFuns[sel.Sel] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFuns[id] {
			return true
		}
		if fn, ok := p.Info.Uses[id].(*types.Func); ok {
			if target := g.Nodes[fn]; target != nil {
				target.AddressTaken = true
			}
		}
		return true
	})
}

// addCall resolves one call expression into an edge or an indirect mark.
func (g *CallGraph) addCall(node *CGNode, p *Package, call *ast.CallExpr, kind CallKind) {
	fun := ast.Unparen(call.Fun)

	// Conversions (T(x)) and builtin calls are not call-graph edges.
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	// An explicit instantiation f[T](…) calls f.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}

	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fn].(type) {
		case *types.Func:
			g.emit(node, call, kind, obj)
			return
		case *types.Builtin, nil:
			return // builtin or unresolved: no edge
		default:
			// A variable or parameter of function type.
			node.HasIndirect = true
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fn]; ok {
			if sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv().Underlying()) {
					node.HasIndirect = true
					return
				}
				if m, ok := sel.Obj().(*types.Func); ok {
					g.emit(node, call, kind, m)
					return
				}
			}
			// Field of function type, or method expression misuse.
			node.HasIndirect = true
			return
		}
		// Package-qualified call: pkg.F(...).
		if obj, ok := p.Info.Uses[fn.Sel].(*types.Func); ok {
			g.emit(node, call, kind, obj)
			return
		}
		node.HasIndirect = true
	case *ast.FuncLit:
		// Immediately invoked literal: its body is already part of this
		// node (FuncLits are attributed to the enclosing declaration).
	default:
		// Call of a call result, index expression, etc.
		node.HasIndirect = true
	}
}

func (g *CallGraph) emit(node *CGNode, call *ast.CallExpr, kind CallKind, callee *types.Func) {
	// A method of an instantiated generic type is its own object; the
	// node is its declaration's.
	callee = callee.Origin()
	edge := CGEdge{Site: call, Kind: kind}
	if target := g.Nodes[callee]; target != nil {
		edge.Callee = target
	} else {
		edge.Ext = callee
	}
	node.Out = append(node.Out, edge)
}
