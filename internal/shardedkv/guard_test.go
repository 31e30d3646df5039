package shardedkv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// mustPanic runs f and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestShardLockGuard drives the guard directly: a worker holding a
// shard lock cannot take another, a try records the lock only when it
// wins, and an fsync-issuing log call panics while a lock is held.
func TestShardLockGuard(t *testing.T) {
	st := New(durCfg(t.TempDir(), nil))
	defer st.CrashDrop()
	w, other := newTestWorker(), newTestWorker()
	sh0, sh1 := st.shards[0], st.shards[1]

	sh0.acquire(w)
	if got := w.HeldShard(); got != 0 {
		t.Fatalf("HeldShard = %d after acquire, want 0", got)
	}
	mustPanic(t, "shardedkv: shard lock taken while holding shard 0's lock", func() { sh1.acquire(w) })
	mustPanic(t, "shardedkv: shard lock taken while holding shard 0's lock", func() { sh0.acquire(w) })
	mustPanic(t, "shardedkv: shard lock tried while holding shard 0's lock", func() { sh1.tryAcquire(w) })
	lsn, err := sh0.wal.Append(wal.KindPut, 7, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "shardedkv: wal.Log.Commit while holding shard 0's lock", func() {
		st.commit(w, walMark{sh: sh0, lsn: lsn})
	})
	mustPanic(t, "shardedkv: wal.Log.Sync while holding shard 0's lock", func() { st.Flush(w) })

	// A losing try records nothing; the winner's take is recorded.
	if other.HeldShard() != -1 || sh0.tryAcquire(other) {
		t.Fatal("a try on a held lock won")
	}
	if got := other.HeldShard(); got != -1 {
		t.Fatalf("HeldShard = %d after a losing try, want -1", got)
	}
	sh0.release(w)
	if got := w.HeldShard(); got != -1 {
		t.Fatalf("HeldShard = %d after release, want -1", got)
	}
	if !sh1.tryAcquire(other) {
		t.Fatal("a try on a free lock lost")
	}
	if got := other.HeldShard(); got != 1 {
		t.Fatalf("HeldShard = %d after a winning try, want 1", got)
	}
	mustPanic(t, "shardedkv: shard lock taken while holding shard 1's lock", func() { sh0.acquire(other) })
	sh1.release(other)

	// Released, the same calls go through.
	syncs := sh0.wal.Stats().Syncs
	if err := st.commit(w, walMark{sh: sh0, lsn: lsn}); err != nil {
		t.Fatal(err)
	}
	if got := sh0.wal.Stats().Syncs; got != syncs+1 {
		t.Fatalf("log syncs = %d after commit, want %d", got, syncs+1)
	}
}

// TestShardLockSourceContracts keeps the guard unbypassable. It parses
// the package's non-test files and checks that a shard's lock is
// acquired, tried and released only inside the guard's three methods;
// that the fsync-issuing wal.Log calls on a shard's log run only in the
// helpers listed below, in their own bodies (a closure may be a visitor
// that runs under a shard lock); that every listed helper but two
// starts with lockFree (release drops the lock, and checkpointAll runs
// at recovery, before the store is published and any lock can be
// held); and that neither field is copied out, which would let a call
// through the copy escape both checks.
func TestShardLockSourceContracts(t *testing.T) {
	allowed := map[string][]string{
		"lock.Acquire":        {"shard.acquire"},
		"lock.TryAcquire":     {"shard.tryAcquire"},
		"lock.Release":        {"shard.release"},
		"wal.Commit":          {"Store.commit"},
		"wal.Sync":            {"Store.syncLogs"},
		"wal.WriteCheckpoint": {"Store.Checkpoint", "Store.checkpointAll"},
		"wal.Close":           {"Store.Close"},
	}
	unguarded := map[string]bool{"shard.release": true, "Store.checkpointAll": true}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
	decls := map[string]*ast.FuncDecl{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[funcName(n)] = n
			case *ast.CallExpr:
				method, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				field, ok := method.X.(*ast.SelectorExpr)
				if !ok {
					break
				}
				call := field.Sel.Name + "." + method.Sel.Name
				funcs, ok := allowed[call]
				if !ok {
					break
				}
				found[call] = true
				if in := enclosingFunc(stack); !slices.Contains(funcs, in) {
					t.Errorf("%s: .%s called in %s; only %v may call it", fset.Position(n.Pos()), call, in, funcs)
				}
			case *ast.SelectorExpr:
				if name := n.Sel.Name; (name == "lock" || name == "wal") && !fieldUseAllowed(stack) {
					t.Errorf("%s: .%s used other than as a method receiver, an assignment target or a nil test", fset.Position(n.Pos()), name)
				}
			}
			return true
		})
	}
	for call, funcs := range allowed {
		if !found[call] {
			t.Errorf("no .%s call found; the test has gone stale", call)
		}
		for _, name := range funcs {
			fd := decls[name]
			if fd == nil {
				t.Errorf("%s, allowed to call .%s, does not exist", name, call)
				continue
			}
			if !unguarded[name] && !startsWithLockFree(fd) {
				t.Errorf("%s calls .%s but does not start with lockFree", name, call)
			}
		}
	}
}

// funcName returns fd's name qualified by its receiver's type name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// enclosingFunc names the innermost function around the top of stack:
// a declared function's qualified name, or "a closure".
func enclosingFunc(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return "a closure"
		case *ast.FuncDecl:
			return funcName(n)
		}
	}
	return "a package-level initializer"
}

// fieldUseAllowed reports whether the field selector at the top of
// stack is a method call's receiver, an assignment target or an
// operand of a comparison with nil.
func fieldUseAllowed(stack []ast.Node) bool {
	sel := stack[len(stack)-1]
	if len(stack) < 2 {
		return false
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		if len(stack) < 3 || p.X != sel {
			return false
		}
		call, ok := stack[len(stack)-3].(*ast.CallExpr)
		return ok && call.Fun == p
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == sel {
				return true
			}
		}
	case *ast.BinaryExpr:
		other := p.Y
		if p.Y == sel {
			other = p.X
		}
		id, ok := other.(*ast.Ident)
		return (p.Op == token.EQL || p.Op == token.NEQ) && ok && id.Name == "nil"
	}
	return false
}

// startsWithLockFree reports whether fd's first statement is a call
// to lockFree.
func startsWithLockFree(fd *ast.FuncDecl) bool {
	if fd.Body == nil || len(fd.Body.List) == 0 {
		return false
	}
	es, ok := fd.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "lockFree"
}

// TestCombineHandoffsCountWorkerChanges pins CombineStats.Handoffs on
// one shard and one goroutine, where every Put is one lock take by its
// own worker: two workers alternating give a handoff on every take but
// the first, one worker gives none.
func TestCombineHandoffsCountWorkerChanges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"alternating", 2}, {"single", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAsync(New(Config{Shards: 1}), AsyncConfig{})
			ws := make([]*core.Worker, tc.workers)
			for i := range ws {
				ws[i] = newTestWorker()
			}
			for k := uint64(0); k < 20; k++ {
				a.Put(ws[int(k)%len(ws)], k, verValue(k, 1))
			}
			cs := a.AggregateCombineStats()
			want := uint64(0)
			if tc.workers > 1 {
				want = cs.LockTakes - 1
			}
			if cs.LockTakes != 20 || cs.Handoffs != want {
				t.Fatalf("LockTakes %d, Handoffs %d; want 20 and %d", cs.LockTakes, cs.Handoffs, want)
			}
		})
	}
}
