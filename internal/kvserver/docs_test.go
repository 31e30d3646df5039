package kvserver

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestProtocolDocMatchesCode pins docs/protocol.md to the codec: every
// opcode, class and status byte must appear in the spec with its
// exact value, the magic and the limits must match, and renumbering
// anything here without touching the doc fails CI.
func TestProtocolDocMatchesCode(t *testing.T) {
	doc := repoFile(t, "docs/protocol.md")

	row := func(name string, val uint8) string {
		return fmt.Sprintf("| `%s` | `0x%02x` |", name, val)
	}
	wantRows := map[string]uint8{
		"OpGet":                OpGet,
		"OpPut":                OpPut,
		"OpDelete":             OpDelete,
		"OpMultiGet":           OpMultiGet,
		"OpMultiPut":           OpMultiPut,
		"OpRange":              OpRange,
		"OpFlush":              OpFlush,
		"OpStats":              OpStats,
		"ClassInteractive":     ClassInteractive,
		"ClassBulk":            ClassBulk,
		"StatusOK":             StatusOK,
		"StatusErrMalformed":   StatusErrMalformed,
		"StatusErrUnknownOp":   StatusErrUnknownOp,
		"StatusErrAdmission":   StatusErrAdmission,
		"StatusErrTooLarge":    StatusErrTooLarge,
		"StatusErrShutdown":    StatusErrShutdown,
		"StatusErrUnavailable": StatusErrUnavailable,
	}
	for name, val := range wantRows {
		if !strings.Contains(doc, row(name, val)) {
			t.Errorf("docs/protocol.md lacks the row %q — spec and code drifted", row(name, val))
		}
	}

	if !strings.Contains(doc, fmt.Sprintf("%q", Magic)) {
		t.Errorf("docs/protocol.md does not state the magic %q", Magic)
	}
	// Note the division of labour: this test pins the DOC to the code
	// (every byte value above comes from the real constants), while the
	// append-only/no-renumbering rule for the enum families themselves
	// is machine-checked by the wireconst analyzer (`make lint`,
	// internal/analysis/passes/wireconst) — it no longer needs a
	// hand-maintained re-assertion here.
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

// TestArchitectureDocCoversServingPath keeps ARCHITECTURE.md honest
// about the layers it promises to explain.
func TestArchitectureDocCoversServingPath(t *testing.T) {
	doc := repoFile(t, "ARCHITECTURE.md")
	for _, want := range []string{
		"kvclient", "kvserver", "admission", "shard map", "ASL",
		"combiner", "docs/protocol.md", "ClassHint",
		// The machine-checked invariants section and its analyzers.
		"Enforced invariants", "repolint", "classhintpair",
		"lockheldcall", "lockorder", "atomicfield",
		"electprobe", "wireconst", "Lock ordering",
		// The contributor-guide sections.
		"add an engine", "add a lock", "add a mix", "add an analyzer",
		// The durability layer (§9) and its load-bearing names.
		"Durability", "internal/wal", "group commit", "ops_per_fsync",
		"CURRENT", "shardedkv.KV", "Snapshotter", "Compactor",
		"SyncWait", "SyncAsync", "wal-smoke", "kvcheck",
		// The fault/degraded layer and its load-bearing names.
		"Fault handling & degraded mode", "internal/fault",
		"wal.FaultFS", "ErrInjected", "DegradedError", "IsDegraded",
		"StatusErrUnavailable", "IsRetryable", "kvsoak", "make soak",
		"statustext",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("ARCHITECTURE.md does not mention %q", want)
		}
	}
}

// TestDocsCarryBufferOwnershipTable pins the buffer-ownership table in
// both documents that state it: who owns the request frame, the
// response frame and a stored value, and what aliases each. The codec's
// no-copy decoders are only safe under exactly these rules.
func TestDocsCarryBufferOwnershipTable(t *testing.T) {
	for _, rel := range []string{"docs/protocol.md", "ARCHITECTURE.md"} {
		doc := repoFile(t, rel)
		for _, want := range []string{
			"| buffer | owner | rule |",
			"| request frame | connection-owned, reused |",
			"values are copied before the store retains them",
			"| response frame | caller-owned |",
			"decoded values alias it",
			"retaining one value retains the frame",
			"| store values | immutable once stored |",
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
