package analysis

// Shared AST helpers for the repolint passes. Everything here is
// deliberately syntactic-first: the analyzers must run both over the
// real tree (full type information from export data) and over
// self-contained analysistest fixtures (which re-declare stand-ins for
// core.Worker, locks.WLock, etc.), so they key on method names and
// type NAMES rather than on package paths.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// MethodCall destructures a call of the form recv.Name(args...).
// It returns ok=false for plain function calls and conversions.
func MethodCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// ExprKey renders e as a canonical lock identity string: selector
// chains print as written ("q.sh.lock"), so the receiver of an
// Acquire/TryAcquire and of its closing Release pair up. Expressions
// that are not pure ident/selector chains (calls, indexing) get a
// unique key and therefore never pair.
func ExprKey(e ast.Expr) string {
	s, pure := renderChain(e)
	if !pure {
		return fmt.Sprintf("<expr@%d>", e.Pos())
	}
	return s
}

func renderChain(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		s, ok := renderChain(e.X)
		return s + "." + e.Sel.Name, ok
	case *ast.ParenExpr:
		return renderChain(e.X)
	}
	return "", false
}

// LockVerb classifies a recognized lock-protocol call.
type LockVerb int

const (
	// VerbAcquire is a blocking acquire (Acquire, Lock, RLock).
	VerbAcquire LockVerb = iota
	// VerbRelease is a release (Release, Unlock, RUnlock).
	VerbRelease
	// VerbTry is a conditional acquire (TryAcquire, TryLock): the lock
	// is held only on the call's true result.
	VerbTry
)

// LockCall matches a call against the repo's two lock protocols and
// returns the lock-bearing receiver expression:
//
//   - the worker-aware WLock protocol: X.Acquire(w) / X.Release(w) /
//     X.TryAcquire(w), exactly one argument;
//   - the sync.Locker protocol: X.Lock() / X.Unlock() / X.RLock() /
//     X.RUnlock() / X.TryLock() / X.TryRLock(), no arguments.
//
// Matching is by method name and arity only (no package check), so
// the passes work identically on the real tree and on import-free
// fixture stand-ins. Helpers that acquire under other names are covered
// by the lockorder pass's per-function summaries instead.
func LockCall(call *ast.CallExpr) (recv ast.Expr, verb LockVerb, ok bool) {
	recv, name, isMethod := MethodCall(call)
	if !isMethod {
		return nil, 0, false
	}
	switch len(call.Args) {
	case 1:
		switch name {
		case "Acquire":
			return recv, VerbAcquire, true
		case "Release":
			return recv, VerbRelease, true
		case "TryAcquire":
			return recv, VerbTry, true
		}
	case 0:
		switch name {
		case "Lock", "RLock":
			return recv, VerbAcquire, true
		case "Unlock", "RUnlock":
			return recv, VerbRelease, true
		case "TryLock", "TryRLock":
			return recv, VerbTry, true
		}
	}
	return nil, 0, false
}

// LockClass resolves a lock-bearing receiver expression to its lock
// class — the granularity at which the lockorder pass states facts and
// ranks orders. Struct fields class as "pkgname.Type.field"
// ("shardedkv.shard.lock", "shardedkv.durability.ckptMu"), package-level
// vars as "pkgname.var". Locals, parameters and call results return ""
// (untracked: a lock that never outlives a function cannot participate
// in a cross-function ordering violation).
func LockClass(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			obj := sel.Obj()
			if obj.Pkg() == nil {
				return ""
			}
			return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
		}
		// Package-qualified package-level var (pkg.GlobalMu).
		if obj, ok := info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := info.Uses[e].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

// Callee resolves a call's statically-known target function: a plain
// function, or a method whose receiver type is concrete. Interface
// method calls resolve to the interface's *types.Func, which simply
// carries no facts — the lock protocols themselves are matched by
// LockCall before summaries are consulted.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NamedRecv resolves the named type of a method call's receiver
// expression, dereferencing one pointer. Nil when the type is unnamed
// or unknown.
func NamedRecv(info *types.Info, recv ast.Expr) *types.Named {
	if info == nil {
		return nil
	}
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// NamedRecvType is NamedRecv reduced to the bare type name.
func NamedRecvType(info *types.Info, recv ast.Expr) string {
	if n := NamedRecv(info, recv); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// LeafObj resolves the object a receiver chain ends in: the variable
// for w.SetClassHint, the field for s.w.SetClassHint.
func LeafObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.ParenExpr:
		return LeafObj(info, e.X)
	}
	return nil
}

// ReferencesObj reports whether any identifier under n resolves to
// target.
func ReferencesObj(info *types.Info, n ast.Node, target types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == target {
			found = true
		}
		return !found
	})
	return found
}

// FuncNodes calls fn for every function body in the file: declared
// functions and methods (with their names) and function literals
// (named ""). Literals nested inside a function are visited in
// addition to — not instead of — the enclosing function's visit, so a
// per-function analysis sees literal bodies twice; analyzers that care
// use the node identity to dedupe or skip literals.
func FuncNodes(file *ast.File, fn func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			fn("", n.Type, n.Body)
		}
		return true
	})
}

// FuncParamObjs collects the types.Object of every func-typed
// parameter declared by ft — the "user callback" parameters whose
// invocation under a lock the lockheldcall pass flags.
func FuncParamObjs(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		if _, isFunc := field.Type.(*ast.FuncType); !isFunc {
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}
