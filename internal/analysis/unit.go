package analysis

// This file implements the `go vet -vettool` driver protocol — the
// stdlib-only counterpart of golang.org/x/tools/go/analysis/unitchecker.
//
// go vet invokes the vettool three ways:
//
//	tool -flags         print a JSON array describing the tool's flags
//	tool -V=full        print "<name> version <ver>" (build-ID material)
//	tool <vet.cfg>      analyze one package described by the config file
//
// The vet.cfg file is JSON emitted by cmd/go into the package's work
// directory. Dependency packages are visited with VetxOnly=true so the
// tool can export facts for downstream packages: for in-module
// dependencies the driver parses, type-checks and runs the fact-
// bearing analyzers exactly as for a leaf package, discards the
// diagnostics, and writes the gob-encoded fact set (imported facts
// plus this package's exports — vetx files are cumulative, see
// facts.go) to VetxOutput; out-of-module packages (the stdlib) carry
// no facts this suite cares about and get an empty vetx file without
// being loaded. For the packages named on the command line
// (VetxOnly=false) we additionally decode every dependency vetx named
// in PackageVetx, run every analyzer with those facts visible, and
// print findings to stderr as "file:line:col: analyzer: message",
// exiting 2 if any survive.
//
// The whole point of running as a vettool rather than a standalone walker is that
// `go vet` hands us fully resolved types for every package variant
// (including test variants) with build-cache-level incrementality.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// vetConfig mirrors the fields of cmd/go's vet.cfg that this driver
// consumes (unknown fields are ignored by encoding/json).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// modulePath is the import-path prefix of packages this suite loads
// for facts. Out-of-module dependencies (the stdlib) are never parsed:
// no analyzer states facts about them, and loading them would triple
// every vet run for nothing. Test variants ("repro/x [repro/x.test]")
// and command-line-arguments share the prefixes.
func inModule(importPath string) bool {
	return importPath == "repro" ||
		strings.HasPrefix(importPath, "repro/") ||
		strings.HasPrefix(importPath, "command-line-arguments")
}

// Main is the vettool entry point: it interprets the go vet driver
// protocol for the given analyzers and exits. Call it from main().
func Main(analyzers ...*Analyzer) {
	RegisterFactTypes(analyzers)
	progname := filepath.Base(os.Args[0])
	if len(os.Args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: %s <vet.cfg>\n(this binary is a go vet -vettool; run it via `go vet -vettool=%s ./...` or `make lint`)\n", progname, os.Args[0])
		os.Exit(1)
	}
	switch arg := os.Args[1]; {
	case arg == "help", arg == "-h", arg == "--help", arg == "-help":
		fmt.Fprintf(os.Stderr, "%s: machine-checks this repository's concurrency contracts\n\nRegistered analyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		os.Exit(0)
	case arg == "-flags":
		// No tool-specific flags; go vet expects a JSON array.
		fmt.Println("[]")
		os.Exit(0)
	case strings.HasPrefix(arg, "-V"):
		// Incorporated into go vet's action IDs. The version must
		// change whenever the analyzers' behaviour does, or go vet
		// serves stale cached diagnostics and .vetx facts from the
		// previous build — so, like x/tools' unitchecker, it is the
		// hash of the tool binary itself, not a hand-bumped constant.
		fmt.Printf("%s version %s (stdlib unitchecker)\n", progname, selfHash())
		os.Exit(0)
	default:
		diags, err := runOnConfig(arg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			os.Exit(2)
		}
		os.Exit(0)
	}
}

// selfHash fingerprints the running binary for -V: sha256 of the
// executable's bytes, truncated for readability. Falls back to a
// constant (no caching correctness, only a lost cache optimisation —
// vet treats every run as a new tool version only if the string
// changes, so a stable fallback just behaves like the old scheme).
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "repolint-unhashed"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "repolint-unhashed"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "repolint-unhashed"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// runOnConfig analyzes the package described by the vet.cfg at path
// and returns rendered diagnostics.
func runOnConfig(path string, analyzers []*Analyzer) ([]string, error) {
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		return nil, rerr
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}

	// writeVetx records the action's output; go vet insists on the
	// file existing even when there are no facts to write.
	writeVetx := func(data []byte) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		return os.WriteFile(cfg.VetxOutput, data, 0o666)
	}
	// Out-of-module packages carry no facts this suite states or
	// reads; skip the load entirely.
	if !inModule(cfg.ImportPath) {
		return nil, writeVetx(nil)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, perr := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, writeVetx(nil)
			}
			return nil, perr
		}
		files = append(files, f)
	}

	// Resolve imports from the export data cmd/go already built: the
	// vet.cfg maps every dependency (stdlib included) to a file in the
	// build cache, so type-checking needs no compiler and no network.
	lookup := func(importPath string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[importPath]; ok {
			importPath = p
		}
		file, ok := cfg.PackageFile[importPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in vet.cfg PackageFile)", importPath)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	tconf := &types.Config{
		Importer:  importer.ForCompiler(fset, compiler, lookup),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compiler, "amd64"),
		Error:     func(error) {}, // collect all, decide below
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeVetx(nil)
		}
		return nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	// Decode every dependency's facts; the store accumulates this
	// package's exports on top during Run.
	facts := NewFactStore()
	for path, vetx := range cfg.PackageVetx {
		data, readErr := os.ReadFile(vetx)
		if readErr != nil {
			return nil, fmt.Errorf("reading facts of %s: %v", path, readErr)
		}
		if addErr := facts.AddEncoded(data); addErr != nil {
			return nil, fmt.Errorf("facts of %s: %v", path, addErr)
		}
	}

	diags, err := Run(analyzers, fset, files, pkg, info, facts)
	if err != nil {
		return nil, err
	}
	encoded, err := facts.Encode()
	if err != nil {
		return nil, err
	}
	if err := writeVetx(encoded); err != nil {
		return nil, err
	}
	// Dependency-only visit: the facts were the whole point; findings
	// are the job of the action that names this package directly.
	if cfg.VetxOnly {
		return nil, nil
	}
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return out, nil
}
