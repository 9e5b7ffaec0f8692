package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// detaint guards the bit-identity contract of the numeric packages
// (DESIGN.md §7): a result must depend only on the input, never on map
// iteration order, the clock, or a random source. Inside the kernel
// packages of kernelPkgs it reports two kinds of finding.
//
// Sources in the function itself:
//
//   - range over a map whose body feeds floating-point state — writing
//     through a float slice, or assigning/appending to a float-typed
//     variable declared outside the loop (an accumulator);
//   - any call to time.Now, time.Since or time.Until;
//   - any call into math/rand or math/rand/v2.
//
// Maps are fine for membership tests and for collecting keys that are
// sorted before numeric use — only float-flow out of the iteration is
// flagged.
//
// Sources behind a call: a helper, in any package, that derives
// floating-point state from such a source and returns it into a kernel.
// A whole-program fixpoint computes, per declared function, whether its
// float-typed return values are tainted by a source (directly, or
// transitively by calling a tainted function), and a kernel call to a
// tainted function whose float result is used is a finding.

// kernelPkgs are the packages under the bit-identity contract:
// everything a solver result can depend on.
var kernelPkgs = map[string]bool{
	"sparse": true, "fem": true, "krylov": true, "par": true, "dsys": true,
	"precond": true, "schur": true, "ilu": true, "arms": true,
}

var DeTaint = &ProgramAnalyzer{
	Name: "detaint",
	Doc:  "map iteration, time or math/rand feeding float state in kernel packages, in the function or through calls",
	Run:  runDeTaint,
}

// taintSummary is one function's verdict in the fixpoint.
type taintSummary struct {
	tainted bool
	reason  string // root cause, e.g. "time.Now" or "map iteration order"
}

func runDeTaint(prog *Program) []Diagnostic {
	g := prog.CallGraph()

	// Deterministic node order for the fixpoint and for reason selection.
	nodes := sortedNodes(g)

	// Whole-program fixpoint: a function is tainted when one of its
	// float-typed returns can carry a source value. Sources grow as
	// summaries land, so iterate until stable. Termination: summaries
	// only flip false→true.
	summaries := map[*CGNode]*taintSummary{}
	for changed := true; changed; {
		changed = false
		for _, node := range nodes {
			if s := summaries[node]; s != nil && s.tainted {
				continue
			}
			s := taintFunc(node, g, summaries)
			if s.tainted {
				summaries[node] = s
				changed = true
			}
		}
	}

	var out []Diagnostic
	for _, p := range prog.Pkgs {
		if kernelPkgs[lastInternalPkg(p.Path)] {
			out = append(out, localSources(p)...)
		}
	}
	for _, node := range nodes {
		if !kernelPkgs[lastInternalPkg(node.Pkg.Path)] {
			continue
		}
		discarded := discardedCalls(node.Decl.Body)
		for _, e := range node.Out {
			if e.Callee == nil || e.Callee == node {
				continue // external (a local source), or self-recursion
			}
			s := summaries[e.Callee]
			if s == nil || !s.tainted {
				continue
			}
			if discarded[e.Site] {
				continue // result unused: no float state enters the kernel
			}
			tv, ok := node.Pkg.Info.Types[e.Site]
			if !ok || !hasFloatResult(tv.Type) {
				continue
			}
			out = append(out, diag(node.Pkg, e.Site.Pos(), "detaint",
				"call to %s feeds nondeterministic floating-point state (tainted by %s) into kernel package %q",
				FuncDisplayName(e.Callee.Fn), s.reason, lastInternalPkg(node.Pkg.Path)))
		}
	}
	sortDiags(out)
	return out
}

// localSources reports the sources inside one kernel package's files.
func localSources(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(node.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && mapRangeFeedsFloats(p, node) {
						out = append(out, diag(p, node.For, "detaint",
							"map iteration order feeds floating-point state: iterate a sorted key slice instead"))
					}
				}
			case *ast.CallExpr:
				if f := calleeFunc(p, node); f != nil {
					if src, ok := externalTaintSource(f); ok {
						out = append(out, diag(p, node.Pos(), "detaint",
							"%s in a kernel package: results must be a function of the input only (inject a seeded source from the caller)", src))
					}
				}
			}
			return true
		})
	}
	return out
}

// mapRangeFeedsFloats reports whether the body of a map-range statement
// writes floating-point state: through an index into a float slice, or
// into a float (or float-slice) variable declared outside the loop.
func mapRangeFeedsFloats(p *Package, rs *ast.RangeStmt) bool {
	found := false
	check := func(lhs ast.Expr) {
		switch target := lhs.(type) {
		case *ast.IndexExpr:
			if t := p.Info.TypeOf(target.X); t != nil && isFloatDeep(t) {
				found = true
			}
		case *ast.Ident:
			if target.Name == "_" {
				return
			}
			obj := p.Info.ObjectOf(target)
			if obj == nil || within(obj.Pos(), rs) {
				return // loop-local temporary
			}
			if isFloatDeep(obj.Type()) {
				found = true
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(stmt.X)
		}
		return !found
	})
	return found
}

// taintFunc computes one function's summary against the current set of
// callee summaries.
func taintFunc(node *CGNode, g *CallGraph, summaries map[*CGNode]*taintSummary) *taintSummary {
	p := node.Pkg
	body := node.Decl.Body

	// sourceOf reports whether a call expression produces tainted data,
	// and the root reason.
	sourceOf := func(call *ast.CallExpr) (string, bool) {
		fn := calleeFunc(p, call)
		if fn == nil {
			return "", false
		}
		if r, ok := externalTaintSource(fn); ok {
			return r, true
		}
		if target := g.Nodes[fn]; target != nil && target != node {
			if s := summaries[target]; s != nil && s.tainted {
				return s.reason, true
			}
		}
		return "", false
	}

	// Intraprocedural taint over named objects, to a fixpoint: an
	// assignment whose RHS mentions a tainted object or a source call
	// taints its LHS. Map-range float accumulation is a direct source.
	tainted := map[types.Object]string{}
	taintObj := func(e ast.Expr, reason string) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := p.Info.ObjectOf(id); obj != nil {
				if _, seen := tainted[obj]; !seen {
					tainted[obj] = reason
				}
			}
		}
	}
	// exprTaint reports whether e mentions a tainted object or source call.
	exprTaint := func(e ast.Expr) (string, bool) {
		var reason string
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if r, ok := sourceOf(x); ok {
					reason, found = r, true
					return false
				}
			case *ast.Ident:
				if obj := p.Info.Uses[x]; obj != nil {
					if r, ok := tainted[obj]; ok {
						reason, found = r, true
						return false
					}
				}
			}
			return true
		})
		return reason, found
	}

	// Seed: float accumulation inside map-range bodies taints the
	// accumulator — the sum depends on iteration order.
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 {
				return true
			}
			switch as.Tok.String() {
			case "+=", "-=", "*=", "/=":
				if tv, ok := p.Info.Types[as.Lhs[0]]; ok && isFloat(tv.Type) {
					taintObj(as.Lhs[0], "float accumulation in map iteration order")
				}
			}
			return true
		})
		return true
	})

	// Propagate through assignments until stable.
	for changed := true; changed; {
		changed = false
		before := len(tainted)
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return true // closures run on our behalf: keep walking
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					if r, ok := exprTaint(st.Rhs[0]); ok {
						for _, l := range st.Lhs {
							taintObj(l, r)
						}
					}
					return true
				}
				for i, rhs := range st.Rhs {
					if i >= len(st.Lhs) {
						break
					}
					if r, ok := exprTaint(rhs); ok {
						taintObj(st.Lhs[i], r)
					}
				}
			}
			return true
		})
		if len(tainted) != before {
			changed = true
		}
	}

	// Verdict: does any float-typed return expression carry taint?
	sig, _ := node.Fn.Type().(*types.Signature)
	var verdict *taintSummary
	ast.Inspect(body, func(n ast.Node) bool {
		if verdict != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			// Bare return with named float results.
			if sig != nil {
				for i := 0; i < sig.Results().Len(); i++ {
					res := sig.Results().At(i)
					if res.Name() == "" || !isFloatDeep(res.Type()) {
						continue
					}
					if r, ok := tainted[res]; ok {
						verdict = &taintSummary{tainted: true, reason: r}
						return false
					}
				}
			}
			return true
		}
		for _, e := range ret.Results {
			tv, ok := p.Info.Types[e]
			if !ok || !isFloatDeep(tv.Type) {
				continue
			}
			if r, ok := exprTaint(e); ok {
				verdict = &taintSummary{tainted: true, reason: r}
				return false
			}
		}
		return true
	})
	if verdict != nil {
		return verdict
	}
	return &taintSummary{}
}

// externalTaintSource classifies stdlib functions that are
// nondeterminism sources.
func externalTaintSource(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		return pkg.Path() + "." + fn.Name(), true
	}
	return "", false
}

// hasFloatResult reports whether a call-result type carries float data:
// a float (or float slice/array) result, directly or in a tuple.
func hasFloatResult(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isFloatDeep(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isFloatDeep(t)
}

// discardedCalls returns the calls whose results are thrown away
// (expression statements and `go`/`defer` heads).
func discardedCalls(body ast.Node) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if c, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				out[c] = true
			}
		case *ast.GoStmt:
			out[st.Call] = true
		case *ast.DeferStmt:
			out[st.Call] = true
		}
		return true
	})
	return out
}

// sortedNodes returns the call-graph nodes in deterministic order
// (package path, then source position).
func sortedNodes(g *CallGraph) []*CGNode {
	nodes := make([]*CGNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Pkg.Path != nodes[j].Pkg.Path {
			return nodes[i].Pkg.Path < nodes[j].Pkg.Path
		}
		return nodes[i].Decl.Pos() < nodes[j].Decl.Pos()
	})
	return nodes
}

// sortDiags orders diagnostics by position then message, for stable
// output.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
