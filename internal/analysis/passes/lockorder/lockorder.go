// Package lockorder builds the whole-program "lock A held while
// acquiring B" graph and checks it against the repository's canonical
// lock order.
//
// # How the graph is built
//
// Within each function, a CFG-based may-held analysis tracks the set
// of lock classes (see analysis.LockClass) that may be held at every
// program point: a direct Acquire/Lock adds its receiver's class, a
// Release/Unlock removes it, and a TryAcquire/TryLock used as a branch
// condition adds it only along the true edge. Calls compose through
// per-function summaries (AcquiresFact) — the classes a function may
// acquire, may release, and may still hold when it returns — computed
// to a fixpoint within the package and exported as object facts, so a
// helper that returns holding a lock (Store.lockShard returns holding
// its shard's lock) shapes its callers' held-sets across package
// boundaries. Every acquire that happens
// while classes are held contributes held→acquired edges; the
// per-package union rides a cumulative GraphFact package fact along
// the import DAG, so by the time kvserver is analyzed the graph spans
// locks → shardedkv → kvserver.
//
// # The canonical order
//
// This table is THE declaration of the repository's lock order —
// ARCHITECTURE.md ("Lock ordering") cites it rather than restating it:
//
//	rank 0  *.shard.lock     shard locks; never nested — a path that
//	                         needs several shards visits them one at
//	                         a time
//	rank 1  everything else  engine/pipeline/server-internal locks
//	                         (Server.mu, serverConn.mu, ...):
//	                         innermost, must not wrap back around a
//	                         shard lock
//
// Ranks are matched by class-name suffix so fixture stand-ins rank the
// same as the real tree. Three checks run on every edge added by the
// package under analysis:
//
//   - rank inversion: an edge from an engine-internal class to a shard
//     lock inverts the table;
//   - same-class nesting: a shard lock acquired while a shard lock is
//     held is a finding (class-level tracking cannot tell the two
//     shards apart, and no path needs two at once); any other class
//     acquired while already held is a self-deadlock with itself;
//   - cycles: an edge whose target can already reach its source in the
//     accumulated whole-program graph closes a deadlock-capable cycle.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "check every lock acquired while another is held against the canonical shard → engine-internal order",
	Run:       run,
	FactTypes: []analysis.Fact{&AcquiresFact{}, &GraphFact{}},
}

// AcquiresFact is the exported summary of one function's lock
// behaviour, in lock classes (sorted for deterministic encoding).
type AcquiresFact struct {
	// Acquires lists every class the function may acquire, directly or
	// through calls.
	Acquires []string
	// Releases lists every class the function may release (including
	// via defer).
	Releases []string
	// ReturnsHeld lists classes that may still be held when the
	// function returns — for a bool-returning try helper callers treat
	// these as held on the true branch only.
	ReturnsHeld []string
}

// AFact marks AcquiresFact as a fact.
func (*AcquiresFact) AFact() {}

// GraphFact is the cumulative held-while-acquiring graph: every edge
// observed in this package and everything it imports.
type GraphFact struct {
	Edges []Edge
}

// AFact marks GraphFact as a fact.
func (*GraphFact) AFact() {}

// Edge records one "From held while acquiring To" observation.
type Edge struct {
	From, To string
	// Pos is the acquire site ("file:line:col") and Fn the enclosing
	// function, for cross-package cycle reports.
	Pos, Fn string
}

// rankOf positions a class in the canonical table (see package doc).
func rankOf(class string) int {
	if strings.HasSuffix(class, ".shard.lock") {
		return 0
	}
	return 1
}

// rankName names a rank in diagnostics.
func rankName(r int) string {
	if r == 0 {
		return "shard lock"
	}
	return "engine-internal"
}

// summary is the in-flight (set-form) AcquiresFact.
type summary struct {
	acquires, releases, returnsHeld map[string]bool
}

func newSummary() *summary {
	return &summary{
		acquires:    map[string]bool{},
		releases:    map[string]bool{},
		returnsHeld: map[string]bool{},
	}
}

func (s *summary) empty() bool {
	return len(s.acquires)+len(s.releases)+len(s.returnsHeld) == 0
}

func (s *summary) equal(o *summary) bool {
	return setEq(s.acquires, o.acquires) && setEq(s.releases, o.releases) && setEq(s.returnsHeld, o.returnsHeld)
}

func (s *summary) fact() *AcquiresFact {
	return &AcquiresFact{Acquires: setList(s.acquires), Releases: setList(s.releases), ReturnsHeld: setList(s.returnsHeld)}
}

func fromFact(f *AcquiresFact) *summary {
	s := newSummary()
	for _, c := range f.Acquires {
		s.acquires[c] = true
	}
	for _, c := range f.Releases {
		s.releases[c] = true
	}
	for _, c := range f.ReturnsHeld {
		s.returnsHeld[c] = true
	}
	return s
}

// localEdge is an Edge with its real source position for reporting.
type localEdge struct {
	Edge
	pos token.Pos
}

type runner struct {
	pass *analysis.Pass
	// sums holds this package's summaries (fixpoint state) and caches
	// imported ones; missing entries are cached as nil.
	sums map[*types.Func]*summary
	// edges collects held→acquired observations keyed From|To (nil
	// during the summary phase).
	edges map[string]*localEdge
	// fn is the function currently being analyzed (for Edge.Fn).
	fn string
}

func run(pass *analysis.Pass) error {
	r := &runner{pass: pass, sums: map[*types.Func]*summary{}}

	// Collect the package's declared functions.
	type declFn struct {
		obj  *types.Func
		name string
		body *ast.BlockStmt
	}
	var decls []declFn
	var anon []*ast.BlockStmt
	for _, file := range pass.Files {
		// Tests deliberately exercise adversarial lock shapes (double
		// TryLock, re-entry probes); their edges must not enter the
		// whole-program graph, where they would indict the conforming
		// production edges they share classes with. Suppressing only
		// their diagnostics is not enough — the edges themselves are
		// the poison.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if obj, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
					decls = append(decls, declFn{obj: obj, name: n.Name.Name, body: n.Body})
				}
				return true
			case *ast.FuncLit:
				// Literal bodies run in their own dynamic context
				// (goroutines, stored callbacks): analyzed separately
				// with an empty entry held-set, never inlined into the
				// enclosing function's flow.
				anon = append(anon, n.Body)
				return true
			}
			return true
		})
	}

	// Phase 1: summaries to a fixpoint (monotone sets over a finite
	// class universe, so this terminates).
	for _, d := range decls {
		r.sums[d.obj] = newSummary()
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			r.fn = d.name
			s := r.analyzeBody(d.body)
			if !s.equal(r.sums[d.obj]) {
				r.sums[d.obj] = s
				changed = true
			}
		}
	}
	for _, d := range decls {
		s := r.sums[d.obj]
		if len(s.acquires)+len(s.releases)+len(s.returnsHeld) > 0 {
			pass.ExportObjectFact(d.obj, s.fact())
		}
	}

	// Phase 2: edge collection with the final summaries.
	r.edges = map[string]*localEdge{}
	for _, d := range decls {
		r.fn = d.name
		r.analyzeBody(d.body)
	}
	for _, body := range anon {
		r.fn = "func literal"
		r.analyzeBody(body)
	}

	// Assemble the whole-program graph: imported (already cumulative)
	// plus local. adj excludes self-edges — same-class nesting is its
	// own check, and a self-loop would make every reachability query
	// trivially cyclic.
	merged := map[string]Edge{}
	for _, imp := range pass.Pkg.Imports() {
		var gf GraphFact
		if !pass.ImportPackageFact(imp.Path(), &gf) {
			continue
		}
		for _, e := range gf.Edges {
			k := e.From + "|" + e.To
			if _, ok := merged[k]; !ok {
				merged[k] = e
			}
		}
	}
	local := make([]*localEdge, 0, len(r.edges))
	for _, e := range r.edges {
		local = append(local, e)
	}
	sort.Slice(local, func(i, j int) bool { return local[i].pos < local[j].pos })
	adj := map[string]map[string]bool{}
	addAdj := func(e Edge) {
		if e.From == e.To {
			return
		}
		// Rank-inverting edges are diagnosed by the rank check (here
		// or in the package that added them); keeping them out of the
		// cycle graph stops one deliberate inversion from tainting
		// every conforming edge it completes a loop with.
		if rankOf(e.To) < rankOf(e.From) {
			return
		}
		if adj[e.From] == nil {
			adj[e.From] = map[string]bool{}
		}
		adj[e.From][e.To] = true
	}
	for _, e := range merged {
		addAdj(e)
	}
	for _, e := range local {
		addAdj(e.Edge)
	}

	// Checks — on locally-added edges only (imported edges were
	// checked when their package was analyzed).
	for _, e := range local {
		if e.From == e.To {
			if rankOf(e.From) == 0 {
				pass.Reportf(e.pos, "shard lock acquired in %s while a shard lock is already held; shard locks never nest — visit shards one at a time", e.Fn)
				continue
			}
			pass.Reportf(e.pos, "%s acquired in %s while already held (self-deadlock)", e.From, e.Fn)
			continue
		}
		if rf, rt := rankOf(e.From), rankOf(e.To); rt < rf {
			pass.Reportf(e.pos, "lock-order inversion in %s: acquiring %s (%s) while holding %s (%s); the canonical order is shard → engine-internal (see package lockorder)", e.Fn, e.To, rankName(rt), e.From, rankName(rf))
			continue
		}
		if path := findPath(adj, e.To, e.From); path != nil {
			pass.Reportf(e.pos, "lock-order cycle in %s: acquiring %s while holding %s closes %s", e.Fn, e.To, e.From, renderCycle(e.From, path))
		}
	}

	// Export the cumulative graph for dependents.
	for _, e := range local {
		k := e.From + "|" + e.To
		if _, ok := merged[k]; !ok {
			merged[k] = e.Edge
		}
	}
	out := GraphFact{Edges: make([]Edge, 0, len(merged))}
	for _, e := range merged {
		out.Edges = append(out.Edges, e)
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		a, b := out.Edges[i], out.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	pass.ExportPackageFact(&out)
	return nil
}

// analyzeBody runs the may-held flow over one function body and
// returns its summary; when r.edges is non-nil every held→acquired
// observation is also recorded.
func (r *runner) analyzeBody(body *ast.BlockStmt) *summary {
	g := cfg.New(body)
	cur := newSummary()
	flow := cfg.Flow[map[string]bool]{
		Entry: map[string]bool{},
		Transfer: func(n ast.Node, held map[string]bool) map[string]bool {
			if _, ok := n.(*ast.DeferStmt); ok {
				// The deferred call runs at function exit, not here:
				// its releases are folded into ReturnsHeld below, and
				// treating them as immediate would silently close the
				// critical section (defer mu.Unlock() would erase the
				// held-set the very next statement depends on).
				return held
			}
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := m.(*ast.CallExpr); ok {
					r.apply(call, held, cur)
				}
				return true
			})
			return held
		},
		Branch: func(cond ast.Expr, out map[string]bool) (map[string]bool, map[string]bool) {
			classes := r.tryClasses(cond)
			if len(classes) == 0 {
				return out, out
			}
			// Transfer added the try-acquired classes as may-held;
			// on the false edge the try failed, so strip them.
			f := setClone(out)
			for _, c := range classes {
				delete(f, c)
			}
			return out, f
		},
		Join:  setUnion,
		Equal: setEq,
		Clone: setClone,
	}
	res := cfg.Solve(g, flow)

	// ReturnsHeld = may-held at exit minus defer-released classes.
	if exit, ok := res.In[g.Exit]; ok {
		for c := range exit {
			cur.returnsHeld[c] = true
		}
	}
	for _, d := range g.Defers {
		if s := r.summaryOf(analysis.Callee(r.pass.TypesInfo, d.Call)); s != nil && !s.empty() {
			for c := range s.releases {
				delete(cur.returnsHeld, c)
				cur.releases[c] = true
			}
			continue
		}
		if recv, verb, ok := analysis.LockCall(d.Call); ok && verb == analysis.VerbRelease {
			if class := analysis.LockClass(r.pass.TypesInfo, recv); class != "" {
				delete(cur.returnsHeld, class)
				cur.releases[class] = true
			}
		}
	}
	return cur
}

// apply folds one call's lock effect into held, accumulating the
// function summary and (in phase 2) edges.
//
// A call can match both ways: x.mu.Unlock() is lexically a LockCall on
// x.mu, and Unlock may also be a summarized method (a lock front end
// whose release path unlocks an inner lock). The summary wins when it
// has one — it names the class the paired acquire used, where the
// lexical reading would invent a second class for the same lock and
// leave the held-set never cleared. The lexical path is the fallback
// for leaf primitives (sync.Mutex, interface-typed lock fields,
// fixture stand-ins) whose callees have no summary.
func (r *runner) apply(call *ast.CallExpr, held map[string]bool, cur *summary) {
	if s := r.summaryOf(analysis.Callee(r.pass.TypesInfo, call)); s != nil && !s.empty() {
		for _, c := range setList(s.acquires) {
			r.noteAcquire(call.Pos(), c, held)
			cur.acquires[c] = true
		}
		for c := range s.releases {
			delete(held, c)
			cur.releases[c] = true
		}
		for c := range s.returnsHeld {
			held[c] = true
		}
		return
	}
	if recv, verb, ok := analysis.LockCall(call); ok {
		class := analysis.LockClass(r.pass.TypesInfo, recv)
		if class == "" {
			return
		}
		switch verb {
		case analysis.VerbAcquire, analysis.VerbTry:
			// VerbTry in statement position is a may-acquire; when it
			// is a branch condition, Branch strips it from the false
			// edge afterwards.
			r.noteAcquire(call.Pos(), class, held)
			held[class] = true
			cur.acquires[class] = true
		case analysis.VerbRelease:
			delete(held, class)
			cur.releases[class] = true
		}
	}
}

// noteAcquire records held→class edges at pos (phase 2 only).
func (r *runner) noteAcquire(pos token.Pos, class string, held map[string]bool) {
	if r.edges == nil || len(held) == 0 {
		return
	}
	for h := range held {
		k := h + "|" + class
		if _, ok := r.edges[k]; ok {
			continue
		}
		r.edges[k] = &localEdge{
			Edge: Edge{
				From: h, To: class,
				Pos: r.pass.Fset.Position(pos).String(), Fn: r.fn,
			},
			pos: pos,
		}
	}
}

// tryClasses returns the classes conditionally held by a branch
// condition: a direct TryAcquire/TryLock's class, or the callee's
// ReturnsHeld for try helpers that return holding a lock.
func (r *runner) tryClasses(cond ast.Expr) []string {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return nil
	}
	// Same precedence as apply: the callee's summary names the classes
	// the try actually leaves held; the lexical reading is the fallback
	// for unsummarized leaf primitives.
	if s := r.summaryOf(analysis.Callee(r.pass.TypesInfo, call)); s != nil && !s.empty() {
		return setList(s.returnsHeld)
	}
	if recv, verb, ok := analysis.LockCall(call); ok {
		if verb != analysis.VerbTry {
			return nil
		}
		if class := analysis.LockClass(r.pass.TypesInfo, recv); class != "" {
			return []string{class}
		}
	}
	return nil
}

// summaryOf resolves fn's summary: this package's fixpoint state, or
// an imported AcquiresFact (cached, including misses).
func (r *runner) summaryOf(fn *types.Func) *summary {
	if fn == nil {
		return nil
	}
	if s, ok := r.sums[fn]; ok {
		return s
	}
	var f AcquiresFact
	var s *summary
	if r.pass.ImportObjectFact(fn, &f) {
		s = fromFact(&f)
	}
	r.sums[fn] = s
	return s
}

// findPath returns the class chain from from to to in adj (BFS,
// deterministic neighbor order), or nil if unreachable.
func findPath(adj map[string]map[string]bool, from, to string) []string {
	if from == to {
		return []string{from}
	}
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range setList(adj[n]) {
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = n
			if next == to {
				var path []string
				for c := to; c != ""; c = parent[c] {
					path = append(path, c)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// renderCycle prints "A → B → C → A" for the cycle closed by the
// reported edge from→(path[0]...path[n]==from's holder).
func renderCycle(from string, path []string) string {
	parts := append([]string{from}, path...)
	return strings.Join(parts, " → ")
}

func setList(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func setEq(a, b map[string]bool) bool {
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

func setClone(a map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

func setUnion(a, b map[string]bool) map[string]bool {
	for k := range b {
		a[k] = true
	}
	return a
}
