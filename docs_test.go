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
	// ending in .md (a glob such as *.md has no name and does not match).
	mdLink    = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdMention = regexp.MustCompile(`[A-Za-z0-9_./:-]*[A-Za-z0-9_-]\.md\b`)
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

// TestDocPointersResolve fails on a pointer to a document that is not
// there: a relative markdown link in a *.md file, or the name of a .md
// file mentioned in a *.md or *.go file, must be an existing file —
// relative to the repository root or to the mentioning file's directory.
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
		for _, target := range targets {
			_, atRoot := os.Stat(target)
			_, beside := os.Stat(filepath.Join(filepath.Dir(path), target))
			if !strings.Contains(target, "://") && atRoot != nil && beside != nil {
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
