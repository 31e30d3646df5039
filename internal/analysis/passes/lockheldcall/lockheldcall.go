// Package lockheldcall enforces the collect-under-lock / emit-after-
// release contract from the sharded store: while a shard lock is held
// — a region bracketed by X.Acquire(w)/X.Release(w), or opened by a
// successful X.TryAcquire(w) — the critical section must
// stay pure engine work. Four call shapes are flagged inside a held
// region:
//
//   - invoking a func-typed parameter of the enclosing function (a
//     user callback: Range's fn, a visitor, a hook) — user code must
//     run after release, from collected results;
//   - a channel send (completing a future wakes a waiter into a world
//     where this goroutine still holds the lock; the pipeline
//     completes futures only after release);
//   - calling an exported method on a Store / AsyncStore / Classed
//     value (re-entering the public API acquires shard locks and can
//     self-deadlock or nest one shard lock inside another);
//   - calling an fsync-issuing method on a wal.Log (Commit, Sync,
//     WriteCheckpoint, Close): the durability contract is append
//     (buffered) under the lock, ONE group commit after release —
//     an fsync inside the critical section would serialize every
//     writer on the disk. Append and Rotate never sync and stay
//     legal under the lock.
//
// Held-region tracking runs on the control-flow graph from
// internal/analysis/cfg as a may-held dataflow: an Acquire adds the
// lock's canonical key (its receiver chain, "sh.lock"), a Release
// removes it, and states join by union at merge points, so a lock held
// on *any* path into a statement flags that statement. TryAcquire used
// as a branch condition adds the key only on the success edge — both the
// `if X.TryAcquire(w) {...}` form and the negated early-return form
// `if !X.TryAcquire(w) { return }` fall out of edge refinement, as do
// acquisitions that survive a labeled break or goto out of a loop.
// `defer X.Release(w)` keeps the region open to function end — which
// "never remove" already models — and the deferred call itself runs
// after every scanned statement, so it is not scanned. A helper that
// returns with the lock held (lockShard) still opens no region here
// — an accepted false negative; those call sites are covered by
// convention and tests, and the cross-function case is the lockorder
// pass's territory.
package lockheldcall

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the lockheldcall pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockheldcall",
	Doc:  "check that no user callback, future completion or re-entrant store call runs while a shard lock is held",
	Run:  run,
}

// storeTypes are the receiver type names whose exported methods form
// the re-entrant public store API (matched by type name so fixtures
// can declare local stand-ins).
var storeTypes = map[string]bool{
	"Store":      true,
	"AsyncStore": true,
	"Classed":    true,
}

// walSyncMethods are the wal.Log methods that issue fsync (or block on
// one in flight). Append/Rotate/CrashDrop buffer or drop and are legal
// under a shard lock.
var walSyncMethods = map[string]bool{
	"Commit":          true,
	"Sync":            true,
	"WriteCheckpoint": true,
	"Close":           true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.FuncNodes(file, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			c := &checker{
				pass:      pass,
				callbacks: analysis.FuncParamObjs(pass.TypesInfo, ft),
			}
			c.checkBody(body)
		})
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	callbacks map[types.Object]bool
}

// checkBody solves the may-held dataflow over body's CFG, then replays
// each reachable block from its fixed-point in-state to report
// violations exactly once per site.
func (c *checker) checkBody(body *ast.BlockStmt) {
	g := cfg.New(body)
	res := cfg.Solve(g, cfg.Flow[map[string]bool]{
		Entry:    map[string]bool{},
		Transfer: c.transfer,
		Branch: func(cond ast.Expr, st map[string]bool) (map[string]bool, map[string]bool) {
			// X.TryAcquire(w): held only on the true edge. The builder
			// normalizes `!cond` by swapping edges, so the early-return
			// form needs no special case.
			if key, ok := tryAcquireCond(cond, c.pass.TypesInfo); ok {
				t := clone(st)
				t[key] = true
				return t, st
			}
			return st, st
		},
		Join:  union,
		Equal: sameKeys,
		Clone: clone,
	})
	for _, b := range g.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		st := clone(in)
		for _, n := range b.Nodes {
			c.scan(n, st)
			st = c.transfer(n, st)
		}
	}
}

// transfer applies one node's effect on the held set: Acquire adds,
// Release removes, everything else is a no-op.
func (c *checker) transfer(n ast.Node, held map[string]bool) map[string]bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return held
	}
	if key, kind, ok := lockOp(es.X); ok {
		held = clone(held)
		switch kind {
		case "Acquire":
			held[key] = true
		case "Release":
			delete(held, key)
		}
	}
	return held
}

// scan inspects one CFG node's subtree for violations under the
// current held set. Function-literal bodies are skipped: defining a
// closure under the lock is fine, only running one is not (a direct
// call of a literal still surfaces via its CallExpr arguments).
// Nested statement blocks are skipped too — a RangeStmt node carries
// its whole subtree, but the body's statements are scanned by their
// own blocks under their own in-states.
func (c *checker) scan(n ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	switch s := n.(type) {
	case *ast.DeferStmt:
		return // runs at function exit, after every scanned statement
	case *ast.ExprStmt:
		if _, _, ok := lockOp(s.X); ok {
			return // the region boundary itself is not a violation
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		case *ast.SendStmt:
			c.pass.Reportf(n.Pos(), "channel send while a shard lock is held; complete futures after Release")
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// checkCall flags a single call made while a lock is held.
func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.callbacks[obj] {
			c.pass.Reportf(call.Pos(), "call to user callback %s while a shard lock is held; collect under the lock, emit after Release", id.Name)
		}
		return
	}
	recv, name, ok := analysis.MethodCall(call)
	if !ok || !ast.IsExported(name) {
		return
	}
	n := analysis.NamedRecv(c.pass.TypesInfo, recv)
	if n == nil {
		return
	}
	p := n.Obj().Pkg()
	if p == nil {
		return
	}
	// Other packages are free to name a type Store (the lsm engine
	// does) or Log; only the sharded store's API and the wal package's
	// Log — or a fixture's local stand-in — carry the contracts.
	local := p == c.pass.Pkg
	switch {
	case storeTypes[n.Obj().Name()] && (p.Name() == "shardedkv" || local):
		c.pass.Reportf(call.Pos(), "re-entrant %s.%s call while a shard lock is held risks self-deadlock or lock-order inversion", n.Obj().Name(), name)
	case n.Obj().Name() == "Log" && walSyncMethods[name] && (p.Name() == "wal" || local):
		c.pass.Reportf(call.Pos(), "wal.Log.%s issues fsync while a shard lock is held; append under the lock, group-commit after Release", name)
	}
}

// lockOp matches X.Acquire(w) / X.Release(w) as a region boundary and
// returns the canonical lock key.
func lockOp(e ast.Expr) (key, kind string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 1 {
		return "", "", false
	}
	recv, name, isMethod := analysis.MethodCall(call)
	if !isMethod || (name != "Acquire" && name != "Release") {
		return "", "", false
	}
	return analysis.ExprKey(recv), name, true
}

// tryAcquireCond matches X.TryAcquire(w) used as a condition and
// returns the canonical lock key.
func tryAcquireCond(e ast.Expr, info *types.Info) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	recv, name, ok := analysis.MethodCall(call)
	if !ok || name != "TryAcquire" {
		return "", false
	}
	return analysis.ExprKey(recv), true
}

func clone(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := clone(a)
	for k := range b {
		out[k] = true
	}
	return out
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
