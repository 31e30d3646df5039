// Command repolint is the repository's multichecker: it bundles the
// custom concurrency-contract analyzers (classhintpair, lockheldcall,
// lockorder, atomicfield, wireconst, statustext) plus the
// stock-but-off-by-default shadow pass into one `go vet -vettool`
// binary, so the contracts documented in ARCHITECTURE.md ("Enforced
// invariants") gate every `make check` / `make ci` run. The
// fact-powered passes (lockorder, atomicfield) exchange gob-encoded
// facts across packages through vet's .vetx files, so whole-program
// properties — the lock-order graph, a field's atomicity discipline —
// are checked even though vet analyzes one package at a time.
//
// Two invocation modes:
//
//	repolint ./...           # convenience: re-execs `go vet -vettool=<self> ./...`
//	go vet -vettool=$(go env GOPATH)/... ./pkg   # driver mode (what make lint runs)
//
// In driver mode go vet hands the binary a vet.cfg per package (see
// internal/analysis/unit.go for the protocol); the convenience mode
// exists so `go run ./cmd/repolint ./internal/...` works during
// development without remembering the -vettool incantation.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/atomicfield"
	"repro/internal/analysis/passes/classhintpair"
	"repro/internal/analysis/passes/lockheldcall"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/shadow"
	"repro/internal/analysis/passes/statustext"
	"repro/internal/analysis/passes/wireconst"
)

// Analyzers is the gating suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	classhintpair.Analyzer,
	lockheldcall.Analyzer,
	lockorder.Analyzer,
	atomicfield.Analyzer,
	wireconst.Analyzer,
	statustext.Analyzer,
	shadow.Analyzer,
}

func main() {
	if patterns := packagePatterns(os.Args[1:]); patterns != nil {
		os.Exit(reExecGoVet(patterns))
	}
	analysis.Main(Analyzers...)
}

// packagePatterns reports whether the arguments are package patterns
// (./..., repro/internal/foo) rather than the go vet driver protocol
// (-flags, -V=full, or a path to a vet.cfg file).
func packagePatterns(args []string) []string {
	if len(args) == 0 {
		return nil
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") || strings.HasSuffix(a, ".cfg") {
			return nil
		}
	}
	return args
}

// reExecGoVet runs the suite over package patterns by re-invoking
// go vet with this binary as the vettool — one loading path (the
// driver protocol) no matter how repolint is launched.
func reExecGoVet(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	return 0
}
