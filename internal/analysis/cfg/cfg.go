// Package cfg builds intra-function control-flow graphs for the
// repolint dataflow passes — the stdlib counterpart of
// golang.org/x/tools/go/cfg, plus the generic forward-dataflow solver
// in solve.go.
//
// A CFG is a set of basic blocks holding the function's statements and
// branch conditions in execution order, connected by control edges.
// The builder models the full statement grammar the repo's passes need
// to be flow-sensitive about: if/else, for and range loops, labeled
// break/continue, goto (including jumps into and out of loops),
// switch/type-switch with fallthrough, select, and short-circuit
// && / || conditions (each operand gets its own block, so a dataflow
// fact can differ between `a` and `b` in `a && b`).
//
// Two deliberate simplifications, shared with x/tools:
//
//   - defer does not edge to the exit block: deferred calls are
//     appended to CFG.Defers (in source order) and the DeferStmt node
//     stays in its block, so analyses model "runs at every return"
//     explicitly — which is what the lockorder pass wants (a
//     deferred Release covers all exits).
//   - panics and calls to runtime-terminating functions are not
//     modeled as exits; a may-analysis only becomes more conservative
//     for it.
//
// Function literals are opaque: a FuncLit appearing inside a statement
// is part of that statement's node, never traversed — literal bodies
// get their own CFG (the passes build one per FuncNodes visit).
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Block is one basic block: Nodes execute in order, then control
// follows one of Succs. When the block ends in a boolean branch, Cond
// is the condition (also the last entry of Nodes) and Succs[0]/[1] are
// the true/false targets. Multi-way dispatch blocks (switch, select,
// range) have Cond == nil and two or more successors.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.head", ... (for tests and dumps)
	Nodes []ast.Node
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
}

// A CFG is one function body's control-flow graph.
type CFG struct {
	Blocks []*Block // in creation order; Blocks[0] is Entry
	Entry  *Block
	Exit   *Block
	Defers []*ast.DeferStmt
}

// New builds the CFG of one function body.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{g: &CFG{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	for _, fix := range b.gotos {
		b.edge(fix.from, b.labelBlock(fix.label))
	}
	return b.g
}

// String renders the graph for tests and debugging:
//
//	b0 entry [ExprStmt] -> b1(t) b2(f)
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s [", blk.Index, blk.Kind)
		for i, n := range blk.Nodes {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%T", n)
		}
		sb.WriteString("] ->")
		for i, s := range blk.Succs {
			tag := ""
			if blk.Cond != nil && len(blk.Succs) == 2 {
				tag = [2]string{"(t)", "(f)"}[i]
			}
			fmt.Fprintf(&sb, " b%d%s", s.Index, tag)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// targets is one entry of the break/continue resolution stack.
type targets struct {
	label string // enclosing statement's label, "" if none
	brk   *Block // break target (loops, switch, select)
	cont  *Block // continue target (loops only)
}

type gotoFixup struct {
	from  *Block
	label string
}

type builder struct {
	g   *CFG
	cur *Block // nil after a terminator (unreachable until a new block starts)
	// stack is the break/continue target stack, innermost last.
	stack []targets
	// labels maps a label name to the block control jumps to; created
	// lazily by goto (forward references) or by the labeled statement.
	labels map[string]*Block
	gotos  []gotoFixup
	// pendingLabel is the label of the labeled statement currently
	// being built, consumed by the next loop/switch/select.
	pendingLabel string
	// fallthroughTo is the next case clause's body block while a
	// switch case body is being built.
	fallthroughTo *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// block returns the current block, starting a fresh (unreachable) one
// if control cannot reach here — dead code still gets nodes, it just
// never receives dataflow input.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) { b.block().Nodes = append(b.block().Nodes, n) }

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

// findTargets resolves a break/continue: the innermost entry, or the
// entry carrying the branch's label.
func (b *builder) findTargets(label string, needCont bool) *targets {
	for i := len(b.stack) - 1; i >= 0; i-- {
		t := &b.stack[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		b.edge(b.block(), head)
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			contTo = post
		}
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.edge(head, body)
		}
		b.stack = append(b.stack, targets{label: label, brk: done, cont: contTo})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, contTo)
		}
		b.stack = b.stack[:len(b.stack)-1]
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.block(), head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(b.block(), head)
		// The RangeStmt node stands for the X evaluation and the
		// per-iteration Key/Value assignment; it dispatches iterate
		// (body) vs exhausted (done).
		head.Nodes = append(head.Nodes, s)
		b.edge(head, body)
		b.edge(head, done)
		b.stack = append(b.stack, targets{label: label, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.switchClauses(label, s.Body.List, s.Assign)

	case *ast.SelectStmt:
		label := b.takeLabel()
		dispatch := b.block()
		done := b.newBlock("select.done")
		b.stack = append(b.stack, targets{label: label, brk: done})
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			body := b.newBlock("select.body")
			b.edge(dispatch, body)
			b.cur = body
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.stack = b.stack[:len(b.stack)-1]
		b.cur = done

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.block(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findTargets(label, false); t != nil {
				b.edge(b.block(), t.brk)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTargets(label, true); t != nil {
				b.edge(b.block(), t.cont)
			}
			b.cur = nil
		case token.GOTO:
			// Forward gotos reference blocks that may not exist yet;
			// resolve all of them after the body is built.
			b.gotos = append(b.gotos, gotoFixup{from: b.block(), label: label})
			b.cur = nil
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.block(), b.fallthroughTo)
			}
			b.cur = nil
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	default:
		// Straight-line statements: expression/assign/send/go/decl/
		// incdec/empty. The whole statement is one node; analyses walk
		// its subtree themselves (skipping FuncLits).
		b.add(s)
	}
}

// switchClauses builds the shared body structure of switch and type
// switch: one dispatch fan-out to every case body (case-selection
// order is not modeled — a may-analysis sees every arm), break to
// done, fallthrough to the next body.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, assign ast.Stmt) {
	dispatch := b.block()
	done := b.newBlock("switch.done")
	bodies := make([]*Block, 0, len(clauses))
	hasDefault := false
	for _, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		// Case expressions evaluate during dispatch.
		for _, e := range cc.List {
			dispatch.Nodes = append(dispatch.Nodes, e)
		}
		bodies = append(bodies, b.newBlock("case"))
	}
	if !hasDefault {
		b.edge(dispatch, done)
	}
	b.stack = append(b.stack, targets{label: label, brk: done})
	i := 0
	for _, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		body := bodies[i]
		i++
		b.edge(dispatch, body)
		if i < len(bodies) {
			b.fallthroughTo = bodies[i]
		} else {
			b.fallthroughTo = nil
		}
		b.cur = body
		if assign != nil {
			// The type-switch assignment rebinds per clause.
			body.Nodes = append(body.Nodes, assign)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.fallthroughTo = nil
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

// cond builds the control flow of a boolean condition evaluated in the
// current block, branching to t when it holds and f when it does not.
// Short-circuit operators split into per-operand blocks; negation
// swaps the targets, so the Cond recorded on a branch block is always
// a bare (non-negated) operand and Succs[0] is its true edge.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.rhs")
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.rhs")
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, e)
	blk.Cond = e
	b.edge(blk, t)
	b.edge(blk, f)
	b.cur = nil
}
