// Package analysistest runs a repolint analyzer over a golden fixture
// package and matches its diagnostics against `// want` expectations —
// the stdlib counterpart of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory of .go files (conventionally
// testdata/src/<name>/ next to the analyzer's test). Each line that
// should trigger a diagnostic carries a trailing comment of the form
//
//	code() // want `regexp` `another regexp`
//
// with one back-quoted (or double-quoted) regular expression per
// expected diagnostic on that line. The test fails symmetrically: a
// diagnostic with no matching expectation is "unexpected", an
// expectation with no diagnostic is "unsatisfied".
//
// Run handles the single-package case: the fixture must be import-free
// (it declares local stand-ins for Worker, WLock, Store, ...), since
// offline there is no exported package data outside a real build, and
// self-contained fixtures keep each case readable in one file anyway.
//
// Packages handles multi-package fixtures for the fact-powered pass:
// sibling directories under one testdata/src root import each other by
// directory name, are typechecked in the given (dependency) order
// against the already-checked fixture packages, and analyzer facts
// flow between them through the same gob encode/decode round trip the
// go vet driver uses — so a cross-package lockorder test exercises
// the real vetx serialization, not an in-memory shortcut. Imports
// outside the fixture root stay forbidden.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one `// want` regexp, keyed to its file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE splits a want comment's payload into quoted regexps.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run applies analyzers to the fixture package in dir and reports any
// mismatch with the fixture's `// want` expectations on t.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	// Importer-free typecheck: single-dir fixtures are self-contained
	// by contract, so any import is a fixture bug.
	files, pkg, info := load(t, fset, dir, filepath.Base(dir), nil)
	diags, err := analysis.Run(analyzers, fset, files, pkg, info, nil)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	match(t, fset, files, diags)
}

// Packages applies analyzers to multi-package fixtures: each name in
// pkgs is a directory under root (conventionally testdata/src), listed
// in dependency order — imports must point at earlier entries. Facts
// exported while analyzing one package are gob-encoded and decoded
// back for the packages that follow, exactly as the vet driver chains
// vetx files, and `// want` expectations are checked in every package.
func Packages(t *testing.T, root string, pkgs []string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	analysis.RegisterFactTypes(analyzers)

	fset := token.NewFileSet()
	imp := &fixtureImporter{pkgs: make(map[string]*types.Package)}
	var allFiles []*ast.File
	var allDiags []analysis.Diagnostic
	// encoded is the cumulative vetx payload: each package decodes the
	// union of everything before it and re-encodes with its own facts
	// added, mirroring unit.go's writeVetx chain.
	var encoded []byte
	for _, name := range pkgs {
		files, pkg, info := load(t, fset, filepath.Join(root, name), name, imp)
		imp.pkgs[name] = pkg
		allFiles = append(allFiles, files...)

		facts := analysis.NewFactStore()
		if err := facts.AddEncoded(encoded); err != nil {
			t.Fatalf("decoding facts for %s: %v", name, err)
		}
		diags, err := analysis.Run(analyzers, fset, files, pkg, info, facts)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", name, err)
		}
		allDiags = append(allDiags, diags...)
		if encoded, err = facts.Encode(); err != nil {
			t.Fatalf("encoding facts of %s: %v", name, err)
		}
	}
	match(t, fset, allFiles, allDiags)
}

// fixtureImporter resolves fixture-internal imports to the already
// typechecked sibling packages.
type fixtureImporter struct {
	pkgs map[string]*types.Package
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.pkgs[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("fixture import %q: not a fixture package (list dependencies before dependents; imports outside the fixture root are forbidden)", path)
}

// load parses and typechecks one fixture directory.
func load(t *testing.T, fset *token.FileSet, dir, pkgPath string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, perr := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			t.Fatalf("parsing fixture: %v", perr)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	conf := &types.Config{Importer: imp}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s (must compile): %v", dir, err)
	}
	return files, pkg, info
}

// match reconciles diagnostics with the fixtures' `// want` comments.
func match(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every `// want` comment in the fixture.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := wantRE.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: malformed want comment (no quoted regexp): %s", pos, c.Text)
				}
				for _, q := range quoted {
					body := q[1 : len(q)-1]
					if q[0] == '"' {
						body = strings.ReplaceAll(body, `\"`, `"`)
					}
					re, err := regexp.Compile(body)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, q, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// claim marks the first unmatched expectation on (file, line) whose
// regexp matches msg.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
