package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the unit the interprocedural analyzers operate on: every
// module-internal package a run has loaded (lint targets and their
// module-internal dependencies), plus the lazily built call graph and
// per-function CFG cache over them. Dependencies matter: taint reaches a
// kernel through helpers in other packages, and the analyzer must see the
// callee bodies to say anything.
type Program struct {
	Pkgs []*Package // sorted by import path

	cg   *CallGraph
	cfgs map[*ast.FuncDecl]*CFG
}

// NewProgram builds a program over the given packages (duplicates are
// dropped, order normalized).
func NewProgram(pkgs []*Package) *Program {
	seen := map[string]bool{}
	var uniq []*Package
	for _, p := range pkgs {
		if !seen[p.Path] {
			seen[p.Path] = true
			uniq = append(uniq, p)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].Path < uniq[j].Path })
	return &Program{Pkgs: uniq, cfgs: map[*ast.FuncDecl]*CFG{}}
}

// CallGraph returns the program's call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog.Pkgs)
	}
	return prog.cg
}

// CFGOf returns the (cached) control-flow graph of a declared function.
func (prog *Program) CFGOf(node *CGNode) *CFG {
	if c, ok := prog.cfgs[node.Decl]; ok {
		return c
	}
	c := NewCFG(node.Pkg, node.Decl.Body)
	prog.cfgs[node.Decl] = c
	return c
}

// ProgramAnalyzer is one interprocedural check over a whole program.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// AllProgram returns the interprocedural analyzer suite in reporting
// order.
func AllProgram() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{DeTaint, ErrType, WaitLeak}
}

// RunProgram runs the given interprocedural analyzers and filters their
// findings through the shared suppression index.
func RunProgram(prog *Program, analyzers []*ProgramAnalyzer, ig *Ignores) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		out = append(out, ig.Filter(a.Run(prog))...)
	}
	return out
}

// lastInternalPkg extracts the final "internal/<name>" component of an
// import path: "parapre/internal/krylov" → "krylov". Fixture packages
// nest under internal/lint/testdata and embed their simulated kernel
// path ("…/testdata/src/detaint/positive/internal/krylov"), which the
// last-component rule resolves the same way.
func lastInternalPkg(pkgPath string) string {
	i := strings.LastIndex(pkgPath, "/internal/")
	if i < 0 {
		return ""
	}
	rest := pkgPath[i+len("/internal/"):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return "" // internal/<name>/<sub>: not a leaf kernel package
	}
	return rest
}

// FuncDisplayName renders fn the way the diagnostics name functions:
// pkgpath.Func or (pkgpath.Recv).Method, with pointer receivers spelled
// *Recv.
func FuncDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		return fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		star = "*"
		recv = p.Elem()
	}
	name := recv.String()
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			name = obj.Pkg().Path() + "." + obj.Name()
		} else {
			name = obj.Name()
		}
	}
	return "(" + star + name + ")." + fn.Name()
}
