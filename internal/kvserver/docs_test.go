package kvserver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// repoFile reads a file relative to the repository root.
func repoFile(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatalf("missing %s: %v (the docs are part of the protocol contract)", rel, err)
	}
	return string(data)
}

// TestProtocolDocMatchesCode pins docs/protocol.md to the codec. Every
// wire constant proto.go declares (wireConsts) is checked, so a
// constant added to the code without a doc row fails here too: every
// opcode, class and status has its doc row with its exact value, and
// every response flag is named in the doc. The magic and the limits
// must match as well.
func TestProtocolDocMatchesCode(t *testing.T) {
	doc := repoFile(t, "docs/protocol.md")

	seen := make(map[string]bool)
	for _, c := range wireConsts(t) {
		seen[c.family] = true
		if c.family == "Flag" {
			if !strings.Contains(doc, "`"+c.name+"`") {
				t.Errorf("docs/protocol.md does not name the response flag %s", c.name)
			}
		} else if row := fmt.Sprintf("| `%s` | `0x%02x` |", c.name, c.val); !strings.Contains(doc, row) {
			t.Errorf("docs/protocol.md lacks the row %q — spec and code drifted", row)
		}
	}
	for _, fam := range wireFamilies {
		if !seen[fam] {
			t.Errorf("proto.go declares no %s* wire constant", fam)
		}
	}

	if !strings.Contains(doc, fmt.Sprintf("%q", Magic)) {
		t.Errorf("docs/protocol.md does not state the magic %q", Magic)
	}
	limits := map[string]string{
		"MaxFrame":      "`1<<24`",
		"MaxBatchOps":   "`1<<16`",
		"MaxValueLen":   "`1<<20`",
		"MaxRangePairs": "`1<<16`",
	}
	for name, lit := range limits {
		if !strings.Contains(doc, fmt.Sprintf("| `%s` | %s |", name, lit)) {
			t.Errorf("docs/protocol.md limits table lacks %s = %s", name, lit)
		}
	}
}

// TestWireEnumsAppendOnly requires the values of each wire family to
// strictly increase in proto.go's declaration order: wire enums are
// append-only, never renumbered or reused.
func TestWireEnumsAppendOnly(t *testing.T) {
	last := make(map[string]wireConst)
	for _, c := range wireConsts(t) {
		if prev, ok := last[c.family]; ok && c.val <= prev.val {
			t.Errorf("proto.go: %s (0x%02x) is declared after %s (0x%02x); wire constants are append-only, strictly increasing per family",
				c.name, c.val, prev.name, prev.val)
		}
		last[c.family] = c
	}
}

// TestEveryStatusHasText requires a StatusText name for every Status*
// constant in proto.go, so no error message or log line falls back to
// a hex code.
func TestEveryStatusHasText(t *testing.T) {
	for _, c := range wireConsts(t) {
		if c.family == "Status" && StatusText(c.val) == fmt.Sprintf("status 0x%02x", c.val) {
			t.Errorf("%s has no StatusText name", c.name)
		}
	}
}

// wireFamilies are the name prefixes of the wire enums. A constant
// belongs to a family when its name is the prefix followed by an
// upper-case letter (ClassBulk is in Class; a Classify would not be).
var wireFamilies = []string{"Op", "Class", "Status", "Flag"}

// wireConst is one wire enum constant as proto.go declares it.
type wireConst struct {
	name, family string
	val          uint8
}

// wireConsts reads every Op*/Class*/Status*/Flag* constant from
// proto.go with go/parser, in declaration order. Each must be declared
// as `Name uint8 = <integer literal>`, the shape the doc tables state.
func wireConsts(t *testing.T) []wireConst {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []wireConst
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				fam := wireFamily(id.Name)
				if fam == "" {
					continue
				}
				typ, _ := vs.Type.(*ast.Ident)
				var lit *ast.BasicLit
				if i < len(vs.Values) {
					lit, _ = vs.Values[i].(*ast.BasicLit)
				}
				if typ == nil || typ.Name != "uint8" || lit == nil || lit.Kind != token.INT {
					t.Fatalf("proto.go: wire constant %s is not declared as `%s uint8 = <integer literal>`", id.Name, id.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("proto.go: %s: %v", id.Name, err)
				}
				out = append(out, wireConst{id.Name, fam, uint8(v)})
			}
		}
	}
	return out
}

// wireFamily returns the wire enum family a constant name belongs to,
// or "".
func wireFamily(name string) string {
	for _, fam := range wireFamilies {
		rest, ok := strings.CutPrefix(name, fam)
		if ok && rest != "" && unicode.IsUpper(rune(rest[0])) {
			return fam
		}
	}
	return ""
}

// TestArchitectureDocCoversServingPath keeps ARCHITECTURE.md honest
// about the layers it promises to explain.
func TestArchitectureDocCoversServingPath(t *testing.T) {
	doc := repoFile(t, "ARCHITECTURE.md")
	for _, want := range []string{
		"kvclient", "kvserver", "admission", "placement", "ASL",
		"combiner", "docs/protocol.md", "one worker per class",
		// The enforced-invariants section: the guard, the lock order and
		// what the guard does not check.
		"Enforced invariants", "shard-lock guard", "Lock ordering",
		"What the guard does not check",
		// The contributor-guide sections.
		"add an engine", "add a lock", "add a mix",
		// The durability layer (§8) and its load-bearing names.
		"Durability", "internal/wal", "group commit", "ops_per_fsync",
		"CURRENT", "shardedkv.KV", "Snapshotter", "Compactor",
		"SyncWait", "SyncAsync", "wal-smoke", "kvcheck",
		// The fault/degraded layer and its load-bearing names.
		"Fault handling & degraded mode", "internal/fault",
		"wal.FaultFS", "ErrInjected", "DegradedError",
		"StatusErrUnavailable", "IsRetryable", "kvsoak", "make soak",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("ARCHITECTURE.md does not mention %q", want)
		}
	}
}

// TestDocsCarryBufferOwnershipTable pins the buffer-ownership table in
// both documents that state it: who owns the request frame, each kind
// of response frame and a stored value, and what aliases each. The codec's
// no-copy decoders are only safe under exactly these rules.
func TestDocsCarryBufferOwnershipTable(t *testing.T) {
	for _, rel := range []string{"docs/protocol.md", "ARCHITECTURE.md"} {
		doc := repoFile(t, rel)
		for _, want := range []string{
			"| buffer | owner | rule |",
			"| request frame | connection-owned, reused |",
			"the store borrows them for the call",
			"| response frame of Get, MultiGet, Range | caller-owned |",
			"decoded values alias it",
			"retaining one value retains the frame",
			"| response frame of any other op | client-owned, reused |",
			"| store values | immutable once stored |",
			"a private copy the front end makes before the shard lock",
			"aliased by scans after the lock drops",
			"MaxFrame",
		} {
			if !strings.Contains(doc, want) {
				t.Errorf("%s: buffer-ownership table lacks %q", rel, want)
			}
		}
	}
}

// TestProtocolDocCoversSyncPolicy pins the durable-server semantics
// the spec promises: the per-class sync policy section and the
// OpFlush durability-barrier note.
func TestProtocolDocCoversSyncPolicy(t *testing.T) {
	doc := repoFile(t, "docs/protocol.md")
	for _, want := range []string{
		"Sync policy", "-wal", "group commit", "durability promise",
		"OpFlush", "durable",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/protocol.md does not mention %q", want)
		}
	}
}

// TestProtocolDocCoversDegradedMode pins the degraded-mode contract:
// the spec must state that a failed durability promise maps to
// StatusErrUnavailable, that reads keep serving, and that the status
// is retryable by contract.
func TestProtocolDocCoversDegradedMode(t *testing.T) {
	doc := repoFile(t, "docs/protocol.md")
	for _, want := range []string{
		"Degraded mode", "StatusErrUnavailable", "read-only",
		"reads keep serving", "retryable", "IsRetryable",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/protocol.md does not mention %q", want)
		}
	}
}
