package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsSkip are the files whose mentions are not this tree's to keep
// true: the append-only history, the roadmap's history sections, and
// the paper / related-work / exemplar digests that cite other repos.
var docsSkip = map[string]bool{
	"CHANGES.md": true, "ROADMAP.md": true, "PAPER.md": true,
	"PAPERS.md": true, "SNIPPETS.md": true, "ISSUE.md": true,
}

var (
	// mdLink is a markdown link target; mdMention any path-like token
	// ending in .md (a glob such as *.md has no name and does not match);
	// goMention a Go source file under one of this tree's code roots.
	mdLink    = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdMention = regexp.MustCompile(`[A-Za-z0-9_./:-]*[A-Za-z0-9_-]\.md\b`)
	goMention = regexp.MustCompile(`\b(?:internal|cmd|benchmark)/[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.go\b`)
)

// eachDocLine calls fn for every line of every *.md and *.go file in
// the tree, except docsSkip and the directories that hold no source of
// this module (the benchmark module keeps its own docs).
func eachDocLine(t *testing.T, fn func(path string, line int, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case ".git", ".bench_build", "bin", "benchmark":
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if (ext != ".md" && ext != ".go") || docsSkip[path] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, text := range strings.Split(string(data), "\n") {
			fn(path, i+1, text)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dangling reports whether target, mentioned in the file at path, names
// no file — neither relative to the repository root nor to path's
// directory. URLs and the docsSkip names, which need not exist in
// every checkout, are never dangling.
func dangling(path, target string) bool {
	if strings.Contains(target, "://") || docsSkip[target] {
		return false
	}
	_, atRoot := os.Stat(target)
	_, beside := os.Stat(filepath.Join(filepath.Dir(path), target))
	return atRoot != nil && beside != nil
}

// TestDanglingPointer pins dangling's two sides: a missing .md is
// dangling, and no docsSkip name ever is.
func TestDanglingPointer(t *testing.T) {
	if missing := "no-such-file" + ".md"; !dangling("docs_test.go", missing) {
		t.Errorf("%s is not reported dangling", missing)
	}
	for name := range docsSkip {
		if dangling("docs_test.go", name) {
			t.Errorf("docsSkip name %s is reported dangling", name)
		}
	}
}

// TestDocPointersResolve fails on a pointer to a file that is not
// there: a relative markdown link in a *.md file, or the name of a .md
// file or of a .go file under internal/, cmd/ or benchmark/ mentioned
// in a *.md or *.go file, must be an existing file — relative to the
// repository root or to the mentioning file's directory.
func TestDocPointersResolve(t *testing.T) {
	eachDocLine(t, func(path string, line int, text string) {
		var targets []string
		if filepath.Ext(path) == ".md" {
			for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
				if target, _, _ := strings.Cut(m[1], "#"); target != "" {
					targets = append(targets, target)
				}
			}
		}
		targets = append(targets, mdMention.FindAllString(text, -1)...)
		targets = append(targets, goMention.FindAllString(text, -1)...)
		for _, target := range targets {
			if dangling(path, target) {
				t.Errorf("%s:%d: %s does not exist", path, line, target)
			}
		}
	})
}

var (
	// goRun is the package directory of a `go run ./<dir>` command;
	// cmdMention a program directory one level under ./cmd or
	// ./examples, the form docs use to name a binary's source.
	goRun      = regexp.MustCompile(`go run (\./[A-Za-z0-9_./-]*[A-Za-z0-9_-])`)
	cmdMention = regexp.MustCompile(`\./(?:cmd|examples)/[A-Za-z0-9_-]+`)
)

// TestRunCommandsNameMains fails on a run command that would not run:
// every `go run ./<dir>`, and every program directory named under
// ./cmd or ./examples, in the files TestDocPointersResolve reads must
// hold a main package.
func TestRunCommandsNameMains(t *testing.T) {
	mainDir := func(dir string) bool {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
			if err == nil && f.Name.Name == "main" {
				return true
			}
		}
		return false
	}
	checked := 0
	eachDocLine(t, func(path string, line int, text string) {
		dirs := map[string]bool{}
		for _, dir := range cmdMention.FindAllString(text, -1) {
			dirs[dir] = true
		}
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
			dirs[m[1]] = true
		}
		for dir := range dirs {
			checked++
			if !mainDir(dir) {
				t.Errorf("%s:%d: %s holds no main package", path, line, dir)
			}
		}
	})
	if checked == 0 {
		t.Fatal("no run command found; the patterns no longer match the docs")
	}
}

// goIdent is a backticked exported Go identifier; a qualified name such
// as `sync.Mutex` is not one and is left alone.
var goIdent = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)`")

// TestLockFamilyTableNamesExportedTypes ties ARCHITECTURE.md's
// lock-family table to internal/locks: every backticked identifier in
// it must be an exported type the package declares, so deleting a
// family cannot leave its row behind.
func TestLockFamilyTableNamesExportedTypes(t *testing.T) {
	files, err := filepath.Glob("internal/locks/*.go")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					types[spec.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
	}
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "| family | role |\n")
	if !found {
		t.Fatal("ARCHITECTURE.md has no `| family | role |` table")
	}
	named := 0
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		for _, m := range goIdent.FindAllStringSubmatch(row, -1) {
			named++
			if !types[m[1]] {
				t.Errorf("lock-family table names `%s`, which is not an exported type of internal/locks", m[1])
			}
		}
	}
	if named == 0 {
		t.Fatal("lock-family table names no type")
	}
}

// testOnly are the exported names under internal/ that only tests call,
// each with why it stays for now. TestNoTestOnlyExports fails when one
// gains a caller, so the list only shrinks.
var testOnly = map[string]string{
	// Interface methods, which their interface's users call.
	"fault.Error.Unwrap":             "errors.Unwrap",
	"kvclient.RetryableError.Unwrap": "errors.Unwrap",
	"shardedkv.DegradedError.Unwrap": "errors.Unwrap",
	"sim.eventHeap.Less":             "heap.Interface",
	// Test support: the model harness the store tests drive, and the
	// class probe the lock, store and server tests wrap locks in.
	"kvmodel.Drive":           "test-support package",
	"kvmodel.Verify":          "test-support package",
	"locktest.WithClassProbe": "test-support package",
	// ROADMAP item 16's list: each is to move into its tests or go.
	"shardedkv.IsDegraded":       "item 16",
	"harness.Figure.FindRow":     "item 16",
	"harness.Figure.FindSeries":  "item 16",
	"lsm.Store.Runs":             "item 16; goes with lsm if item 9 deletes it",
	"lsm.Store.RunBytes":         "item 16; goes with lsm if item 9 deletes it",
	"lsm.Store.RunEntries":       "item 16; goes with lsm if item 9 deletes it",
	"lsm.Store.Refs":             "item 16; goes with lsm if item 9 deletes it",
	"lsm.Version.Seq":            "item 16; goes with lsm if item 9 deletes it",
	"wal.Log.Durable":            "item 16; read by wal and shardedkv tests only",
	"shardedkv.Store.Checkpoint": "item 9: the served log is never checkpointed",
}

// TestNoTestOnlyExports keeps production code that only tests call out
// of internal/: every exported top-level func, type and method declared
// in a non-test file under internal/ must be named in some non-test .go
// file of this module or of benchmark/, outside its own declaration.
// The check is by name, so a method counts as used when any call names
// it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // qualified declaration → name
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bin", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(path, "internal"+string(filepath.Separator))
		declare := func(name, qualified string) {
			if internal && ast.IsExported(name) {
				declared[qualified] = name
			}
		}
		// own holds the declaring identifier and, inside a declaration,
		// the uses of its own name, which do not count.
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				qualified := f.Name.Name + "." + decl.Name.Name
				if decl.Recv != nil {
					qualified = f.Name.Name + "." + recvType(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				declare(decl.Name.Name, qualified)
				markOwn(decl, decl.Name.Name, own)
				if decl.Recv != nil {
					// A method is part of its type's declaration.
					markOwn(decl.Recv, recvType(decl.Recv.List[0].Type), own)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						declare(ts.Name.Name, f.Name.Name+"."+ts.Name.Name)
						markOwn(ts, ts.Name.Name, own)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported declaration found under internal/")
	}
	for qualified, name := range declared {
		switch _, allowed := testOnly[qualified]; {
		case !used[name] && !allowed:
			t.Errorf("%s is named by no non-test file: move it into the tests that use it, or delete it", qualified)
		case used[name] && allowed:
			t.Errorf("%s now has a caller: drop it from testOnly", qualified)
		}
	}
	for qualified := range testOnly {
		if _, ok := declared[qualified]; !ok {
			t.Errorf("testOnly names %s, which is not an exported declaration under internal/", qualified)
		}
	}
}

// recvType is the name of a method receiver's type.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// markOwn adds to own every identifier named name inside decl.
func markOwn(decl ast.Node, name string, own map[*ast.Ident]bool) {
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			own[id] = true
		}
		return true
	})
}
