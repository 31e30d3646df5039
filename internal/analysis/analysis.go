// Package analysis is a stdlib-only reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// The repo's lock contracts — user callbacks never run under a shard
// lock, shard locks never nest, fsync never runs under one — lived in
// ARCHITECTURE.md prose and spot tests until PR 6. This package turns
// them into compiler-adjacent checks: each contract is an Analyzer, the
// cmd/repolint multichecker runs them over every package via
// `go vet -vettool` (see unit.go for the driver protocol), and
// analysistest replays them over golden fixtures.
//
// Why not depend on x/tools directly? The build environment is fully
// offline (empty module cache, no proxy), so the framework subset we
// need — Analyzer/Pass/Diagnostic, a unitchecker driver, a fixture
// runner — is implemented here on go/ast + go/types alone. The API
// shape deliberately mirrors x/tools so analyzers could migrate to the
// real framework if the dependency ever becomes available.
//
// # Suppressions
//
// A diagnostic can be silenced in place with a justified directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the line immediately above the offending line or as
// a trailing comment on the line itself. The reason is mandatory — a
// bare directive suppresses nothing and is itself reported — so every
// suppression in the tree documents why the contract does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass: a named, documented check
// that inspects a type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention it is a single
	// lower-case word (lockheldcall, lockorder, ...).
	Name string
	// Doc is the analyzer's long documentation: the contract it
	// enforces, first line a one-sentence summary.
	Doc string
	// Run applies the analyzer to one package. It reports findings
	// via pass.Report / pass.Reportf; the error return is for
	// analysis failures (not findings).
	Run func(pass *Pass) error
	// FactTypes lists pointer exemplars of every Fact type the
	// analyzer exports or imports (see facts.go). Analyzers with no
	// FactTypes see no facts and export none.
	FactTypes []Fact
}

// A Pass is one application of one Analyzer to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts *FactStore
	diags *[]Diagnostic
}

// ExportObjectFact states fact about obj, a function or method (the
// lockorder pass's acquires-summaries). The fact rides this package's
// vetx file to every dependent. A no-op for objects that cannot carry
// facts (anything but a package-level function or a method of a named
// type).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(obj, fact)
}

// ImportObjectFact copies the stored fact about obj into fact (a
// pointer to the matching concrete type), reporting whether one was
// found. Facts exported earlier in this same package run are visible
// too, so in-package and cross-package callee summaries read the same.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(obj, fact)
}

// ExportPackageFact states fact about the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Pkg.Path(), fact)
}

// ImportPackageFact copies the stored package fact for the package
// with the given import path into fact, reporting whether one exists.
func (p *Pass) ImportPackageFact(path string, fact Fact) bool {
	return p.facts.importPackage(path, fact)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, message string) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: message})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run applies every analyzer to the given type-checked package and
// returns the surviving diagnostics in position order: findings in
// *_test.go files are dropped (the contracts bind production code;
// tests exercise violations deliberately), and findings silenced by a
// justified //lint:ignore directive are filtered out. Malformed
// directives (no reason) are themselves reported.
//
// facts carries the decoded facts of every dependency in and this
// package's exported facts out; nil means an empty throwaway store.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	diags = append(diags, checkDirectives(fset, files)...)
	diags = filterTestFiles(fset, diags)
	diags = applySuppressions(fset, files, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// IsTestFile reports whether pos lies in a *_test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func filterTestFiles(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !IsTestFile(fset, d.Pos) {
			out = append(out, d)
		}
	}
	return out
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool
	reason    string
}

// parseIgnore parses a //lint:ignore directive; ok is false for
// non-directive comments. A directive with no reason parses with
// reason == "" (the caller reports it).
func parseIgnore(text string) (d ignoreDirective, ok bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return d, false
	}
	rest := strings.TrimSpace(text[len(prefix):])
	name, reason, _ := strings.Cut(rest, " ")
	d.analyzers = make(map[string]bool)
	for _, a := range strings.Split(name, ",") {
		if a != "" {
			d.analyzers[a] = true
		}
	}
	d.reason = strings.TrimSpace(reason)
	return d, len(d.analyzers) > 0
}

// directiveLines maps file -> line -> directive for every
// //lint:ignore comment in files.
func directiveLines(fset *token.FileSet, files []*ast.File) map[string]map[int]ignoreDirective {
	m := make(map[string]map[int]ignoreDirective)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if m[pos.Filename] == nil {
					m[pos.Filename] = make(map[int]ignoreDirective)
				}
				m[pos.Filename][pos.Line] = d
			}
		}
	}
	return m
}

// applySuppressions drops diagnostics covered by a justified
// //lint:ignore directive on the same line or the line above.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	dirs := directiveLines(fset, files)
	if len(dirs) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if suppressed(dirs, pos.Filename, pos.Line, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func suppressed(dirs map[string]map[int]ignoreDirective, file string, line int, analyzer string) bool {
	byLine := dirs[file]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if d, ok := byLine[l]; ok && d.reason != "" && d.analyzers[analyzer] {
			return true
		}
	}
	return false
}

// checkDirectives reports //lint:ignore directives with no reason:
// an unjustified suppression is itself a contract violation.
func checkDirectives(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseIgnore(c.Text); ok && d.reason == "" {
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "repolint",
						Message:  "//lint:ignore directive needs a justification: //lint:ignore <analyzer> <reason>",
					})
				}
			}
		}
	}
	return out
}
