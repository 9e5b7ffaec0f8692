package lint

import (
	"go/ast"
	"go/types"
)

// An approximate static call graph over the loaded packages. Nodes are
// the declared functions and methods of module-internal packages; edges
// are the statically resolvable calls between them. A call the graph
// cannot resolve to a declaration — through a function-typed value
// (parameter, struct field, local) or an interface method — grows no
// edge, and neither does a call into the standard library: detaint's
// taint and errtype's reachability stop there.
//
// Function literals do not get nodes of their own: a FuncLit's body
// belongs to its enclosing declaration, so calls inside a closure are
// edges out of the declaring function — the right attribution for taint
// and reachability, where the closure runs on behalf of its creator.

// CGEdge is one statically resolved call.
type CGEdge struct {
	Site   *ast.CallExpr
	Callee *CGNode
}

// CGNode is one declared function or method.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Out []CGEdge
}

// CallGraph is the whole-program graph, indexed by function object.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
}

// buildCallGraph constructs the graph over the given packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*CGNode{}}

	// First pass: a node per declaration, so edges can resolve forward
	// references and cross-package calls.
	var nodes []*CGNode
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
				node := &CGNode{Fn: fn, Decl: fd, Pkg: p}
				g.Nodes[fn] = node
				nodes = append(nodes, node)
			}
		}
	}

	// Second pass: the edges.
	for _, node := range nodes {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := g.Nodes[staticCallee(node.Pkg, call)]; callee != nil {
					node.Out = append(node.Out, CGEdge{Site: call, Callee: callee})
				}
			}
			return true
		})
	}
	return g
}

// staticCallee resolves a call to the declaration it runs, or nil. An
// explicit instantiation f[T](…) calls f, and a method of an instantiated
// generic type is its own object whose declaration is its Origin: the
// generic kernels of internal/ilu are called both ways.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fn]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fn.Sel]
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}
