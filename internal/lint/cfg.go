package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// Control-flow graphs. Each function body is lowered to basic blocks of
// statements/expressions with successor edges, the substrate of the
// forward-dataflow engine (dataflow.go) and of waitleak's all-paths join
// check.
//
// Two properties matter for this suite and are guaranteed here:
//
//   - Constant conditions prune. `if !paranoid.Enabled { return }` with
//     the untagged constant-false Enabled keeps only the live branch, so
//     code behind a constant-false condition is invisible to the
//     analyses, exactly as it is invisible to the compiled binary.
//   - Terminating statements end their block with no fall-through edge:
//     return edges to the synthetic Exit block, panic(...) edges nowhere.
//
// The builder is intentionally approximate where precision buys nothing
// for these analyzers: goto edges to any label already seen are resolved,
// forward gotos fall back to a conservative edge to Exit.

// Block is one basic block: a maximal straight-line run of statements and
// guarded expressions, ending where control can transfer.
type Block struct {
	ID    int
	Stmts []ast.Node // statements, plus condition/tag expressions evaluated in this block
	Succs []*Block
}

// CFG is one function body's control-flow graph. Entry is the first
// block; Exit is a synthetic empty block every return (and normal
// fall-off) edges to. Defers collects the deferred calls seen anywhere in
// the body: they run at every exit, which is how the waitleak analyzer
// models `defer wg.Wait()`.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.DeferStmt
}

// NewCFG lowers a function body to a control-flow graph. pkg supplies
// type information for constant-condition pruning; a nil pkg disables
// pruning (used by hand-built tests).
func NewCFG(pkg *Package, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{pkg: pkg, cfg: &CFG{}}
	b.cfg.Exit = b.newBlock() // allocate Exit first so it always exists
	entry := b.newBlock()
	b.cfg.Entry = entry
	if out := b.stmtList(entry, body.List); out != nil {
		b.edge(out, b.cfg.Exit)
	}
	return b.cfg
}

// Reachable returns the set of blocks reachable from Entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	return seen
}

type cfgBuilder struct {
	pkg *Package
	cfg *CFG

	// loop/switch context for break and continue, innermost last. A
	// label ("" for unlabeled) names the construct each frame belongs to.
	frames []ctrlFrame
	labels map[string]*Block // label → block it labels (for resolved gotos)

	// pendingLabel carries a just-seen statement label into the loop or
	// switch it labels, so `continue L` / `break L` resolve to the right
	// frame. The construct consumes (clears) it on entry.
	pendingLabel string
}

type ctrlFrame struct {
	label    string
	breakTo  *Block
	contTo   *Block // nil for switch/select frames
	canBreak bool
	canCont  bool
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{ID: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// constBool reports the compile-time boolean value of e, when it has one.
func (b *cfgBuilder) constBool(e ast.Expr) (val, ok bool) {
	if b.pkg == nil || e == nil {
		return false, false
	}
	tv, found := b.pkg.Info.Types[e]
	if !found || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// stmtList lowers a statement sequence starting in cur; it returns the
// block where control continues, or nil when every path terminated.
func (b *cfgBuilder) stmtList(cur *Block, stmts []ast.Stmt) *Block {
	for _, s := range stmts {
		if cur == nil {
			// Dead code after return/break/…: still lower it (its own
			// diagnostics are not this layer's business) but keep it
			// disconnected so reachability analyses skip it.
			cur = b.newBlock()
			cur.Stmts = nil
			dead := b.stmt(cur, s)
			cur = dead
			continue
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt lowers one statement into cur and returns the continuation block
// (possibly cur itself), or nil if control cannot fall through.
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		cur.Stmts = append(cur.Stmts, st.Cond)
		val, isConst := b.constBool(st.Cond)

		var after *Block
		join := func(out *Block) {
			if out == nil {
				return
			}
			if after == nil {
				after = b.newBlock()
			}
			b.edge(out, after)
		}

		if !isConst || val {
			then := b.newBlock()
			b.edge(cur, then)
			join(b.stmtList(then, st.Body.List))
		}
		if !isConst || !val {
			if st.Else != nil {
				els := b.newBlock()
				b.edge(cur, els)
				join(b.stmt(els, st.Else))
			} else {
				join(cur)
			}
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if st.Cond != nil {
			head.Stmts = append(head.Stmts, st.Cond)
		}
		after := b.newBlock()
		val, isConst := b.constBool(st.Cond)
		condTrue := st.Cond == nil || !isConst || val
		condFalse := st.Cond != nil && (!isConst || !val)

		body := b.newBlock()
		if condTrue {
			b.edge(head, body)
		}
		if condFalse {
			b.edge(head, after)
		}
		b.pushFrame(label, after, head)
		out := b.stmtList(body, st.Body.List)
		b.popFrame()
		if out != nil {
			if st.Post != nil {
				out = b.stmt(out, st.Post)
			}
			b.edge(out, head)
		}
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		cur.Stmts = append(cur.Stmts, st.X)
		head := b.newBlock()
		b.edge(cur, head)
		if st.Key != nil {
			head.Stmts = append(head.Stmts, st.Key)
		}
		if st.Value != nil {
			head.Stmts = append(head.Stmts, st.Value)
		}
		after := b.newBlock()
		b.edge(head, after) // empty collection
		body := b.newBlock()
		b.edge(head, body)
		b.pushFrame(label, after, head)
		out := b.stmtList(body, st.Body.List)
		b.popFrame()
		b.edge(out, head)
		return after

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		if st.Tag != nil {
			cur.Stmts = append(cur.Stmts, st.Tag)
		}
		return b.caseClauses(cur, st.Body.List, true)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(cur, st.Init)
		}
		cur.Stmts = append(cur.Stmts, st.Assign)
		return b.caseClauses(cur, st.Body.List, true)

	case *ast.SelectStmt:
		return b.caseClauses(cur, st.Body.List, false)

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, st)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Stmts = append(cur.Stmts, st)
		label := ""
		if st.Label != nil {
			label = st.Label.Name
		}
		switch st.Tok {
		case token.BREAK:
			if t := b.findFrame(label, true); t != nil {
				b.edge(cur, t.breakTo)
			} else {
				b.edge(cur, b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := b.findFrame(label, false); t != nil {
				b.edge(cur, t.contTo)
			} else {
				b.edge(cur, b.cfg.Exit)
			}
		case token.GOTO:
			if t, ok := b.labels[label]; ok {
				b.edge(cur, t)
			} else {
				b.edge(cur, b.cfg.Exit) // forward goto: conservative
			}
		case token.FALLTHROUGH:
			// Handled by caseClauses; a stray one falls through normally.
			return cur
		}
		return nil

	case *ast.LabeledStmt:
		head := b.newBlock()
		b.edge(cur, head)
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[st.Label.Name] = head
		b.pendingLabel = st.Label.Name
		out := b.stmt(head, st.Stmt)
		b.pendingLabel = ""
		return out

	case *ast.DeferStmt:
		cur.Stmts = append(cur.Stmts, st)
		b.cfg.Defers = append(b.cfg.Defers, st)
		return cur

	case *ast.ExprStmt:
		cur.Stmts = append(cur.Stmts, st)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && b.isBuiltin(id) {
				return nil // terminates: no fall-through edge
			}
		}
		return cur

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: straight-line.
		cur.Stmts = append(cur.Stmts, st)
		return cur
	}
}

// takeLabel consumes the pending statement label.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(label string, breakTo, contTo *Block) {
	b.frames = append(b.frames, ctrlFrame{label: label, breakTo: breakTo, contTo: contTo,
		canBreak: true, canCont: contTo != nil})
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *cfgBuilder) findFrame(label string, forBreak bool) *ctrlFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if forBreak && f.canBreak {
			return f
		}
		if !forBreak && f.canCont {
			return f
		}
	}
	return nil
}

// caseClauses lowers the clause list of a switch/type-switch (loop=true
// frames support break) or select. Every clause body gets its own block
// fed from the head; fallthrough chains switch clause i into clause i+1.
func (b *cfgBuilder) caseClauses(head *Block, clauses []ast.Stmt, isSwitch bool) *Block {
	after := b.newBlock()
	b.pushFrame(b.takeLabel(), after, nil)

	hasDefault := false
	bodies := make([]*Block, len(clauses))
	outs := make([]*Block, len(clauses))
	var bodyStmts [][]ast.Stmt
	for i, cl := range clauses {
		blk := b.newBlock()
		bodies[i] = blk
		b.edge(head, blk)
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blk.Stmts = append(blk.Stmts, e)
			}
			bodyStmts = append(bodyStmts, c.Body)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				blk.Stmts = append(blk.Stmts, c.Comm)
			}
			bodyStmts = append(bodyStmts, c.Body)
		default:
			bodyStmts = append(bodyStmts, nil)
		}
	}
	for i := range clauses {
		stmts := bodyStmts[i]
		fallsThrough := false
		if isSwitch && len(stmts) > 0 {
			if br, ok := stmts[len(stmts)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				stmts = stmts[:len(stmts)-1]
			}
		}
		out := b.stmtList(bodies[i], stmts)
		if fallsThrough && i+1 < len(clauses) {
			b.edge(out, bodies[i+1])
			out = nil
		}
		outs[i] = out
	}
	b.popFrame()

	for _, out := range outs {
		b.edge(out, after)
	}
	if !hasDefault || len(clauses) == 0 {
		// No default: the head may skip every clause.
		b.edge(head, after)
	}
	return after
}

// isBuiltin reports whether id resolves to a universe-scope builtin.
func (b *cfgBuilder) isBuiltin(id *ast.Ident) bool {
	if b.pkg == nil {
		return id.Name == "panic"
	}
	obj := b.pkg.Info.ObjectOf(id)
	if obj == nil {
		return true // unresolved in a fixture: assume the builtin
	}
	return obj.Parent() == nil || obj.Pkg() == nil
}
