package shardedkv

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
)

// Degraded-mode suite: a shard whose log fails must flip read-only —
// writes fail fast with *DegradedError, no write is falsely acked as
// durable, reads keep serving — and a restart without the fault must
// recover every write acked before the failure.

// degCfg is durCfg with fault injection threaded into every shard log
// through the wal.FS seam.
func degCfg(dir string, reg *fault.Registry) Config {
	cfg := durCfg(dir, nil)
	cfg.Durability.FS = wal.FaultFS{Reg: reg, Base: nil}
	return cfg
}

// TestDegradedShardFailsWritesServesReads drives sync-waited writes
// into a store whose WAL fsync is rigged to fail once; after the first
// failed commit the owning shard must refuse writes with a typed,
// inspectable error while reads — including of keys written before the
// failure — keep answering. A restart without faults must serve every
// key acked before the failure.
func TestDegradedShardFailsWritesServesReads(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New(1)
	// Shards batch appends, so "nth fsync" maps to an unpredictable op;
	// fire on the 3rd fsync so some writes land first.
	reg.MustAdd(fault.Rule{Point: "wal.fsync", Nth: 3, Act: fault.ActError})
	st := New(degCfg(dir, reg))
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	var acked []uint64
	var failedShard uint64
	sawFailure := false
	for k := uint64(0); k < 400; k++ {
		_, err := st.Put(w, k, verValue(k, 1))
		if err == nil {
			if !sawFailure {
				acked = append(acked, k)
			} else {
				// Other shards stay writable; only the degraded one
				// refuses. Still a valid ack.
				acked = append(acked, k)
			}
			continue
		}
		var de *DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("Put(%d): error is not *DegradedError: %v", k, err)
		}
		if !IsDegraded(err) {
			t.Fatalf("IsDegraded(%v) = false", err)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("degraded cause lost the injected sentinel: %v", err)
		}
		sawFailure = true
		failedShard = uint64(de.Shard)
	}
	if !sawFailure {
		t.Fatal("no write failed; the injected fsync fault never fired")
	}
	if st.DegradedShards() != 1 {
		t.Fatalf("DegradedShards = %d, want 1 (first cause wins, flip is one-way)", st.DegradedShards())
	}
	t.Logf("shard %d degraded; %d writes acked", failedShard, len(acked))

	// Reads keep serving on the degraded store — every acked key must
	// still answer from memory.
	for _, k := range acked {
		if v, ok := st.Get(w, k); !ok || !bytes.Equal(v, verValue(k, 1)) {
			t.Errorf("degraded-mode Get(%d) = %x,%v; want the acked value", k, v, ok)
		}
	}
	// A write routed to the degraded shard still fails (sticky), and
	// Flush reports the shard too.
	if err := st.Flush(w); !IsDegraded(err) {
		t.Errorf("Flush on a degraded store = %v; want degraded", err)
	}
	st.CrashDrop()

	// Restart without faults: recovery must replay every acked write.
	// (Sync-waited acks were durable before they returned; the failed
	// write was never acked, so the model has no claim on it.)
	st2 := New(durCfg(dir, nil))
	for _, k := range acked {
		if v, ok := st2.Get(w, k); !ok || !bytes.Equal(v, verValue(k, 1)) {
			t.Errorf("post-recovery Get(%d) = %x,%v; lost a sync-acked write", k, v, ok)
		}
	}
	st2.Close(w)
}

// TestDegradedPipelineSyncWaiters runs the failure through the
// combining pipeline: sync-wait futures whose group commit fails must
// complete with the typed degraded error — not hang, not report
// success — and later writes to the shard fail fast.
func TestDegradedPipelineSyncWaiters(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New(1)
	reg.MustAdd(fault.Rule{Point: "wal.fsync", Nth: 2, Act: fault.ActError})
	st := New(degCfg(dir, reg))
	a := NewAsync(st, AsyncConfig{RingSize: 32})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	failures := 0
	for k := uint64(0); k < 300; k++ {
		_, err := a.Put(w, k, verValue(k, 1))
		if err != nil {
			if !IsDegraded(err) {
				t.Fatalf("pipeline Put(%d): want degraded error, got %v", k, err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no pipeline write failed; the injected fault never reached a waiter")
	}
	// The pipeline itself must not wedge: reads and a final drain still work.
	if _, ok := a.Get(w, 0); !ok {
		t.Error("pipeline Get(0) lost a written key after degrade")
	}
	if err := a.Flush(w); !IsDegraded(err) {
		t.Errorf("pipeline Flush = %v; want degraded", err)
	}
	a.Close(w)
}

// TestDegradedBulkSurfacesAtFlush: bulk-policy (SyncAsync) writes ack
// before their fsync, so they cannot return a commit error inline; the
// contract is that the failure surfaces at the next Flush.
func TestDegradedBulkSurfacesAtFlush(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New(1)
	reg.MustAdd(fault.Rule{Point: "wal.fsync", Always: true, Act: fault.ActError})
	cfg := degCfg(dir, reg)
	// Bulk policy: appends buffer, fsync happens at Flush.
	cfg.Durability.Interactive = SyncAsync
	cfg.Durability.Bulk = SyncAsync
	st := New(cfg)
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 32; k++ {
		if _, err := st.Put(w, k, verValue(k, 1)); err != nil {
			t.Fatalf("async-policy Put(%d) failed inline: %v", k, err)
		}
	}
	if err := st.Flush(w); !IsDegraded(err) {
		t.Fatalf("Flush = %v; want the deferred fsync failure as a degraded error", err)
	}
	if st.DegradedShards() == 0 {
		t.Fatal("no shard recorded as degraded after a failed Flush")
	}
	st.CrashDrop()
}
