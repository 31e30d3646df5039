package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

func faultOpts(reg *fault.Registry) Options {
	return Options{FS: FaultFS{Reg: reg}}
}

// replayMap replays dir into a key→value map (deletes remove).
func replayMap(t *testing.T, dir string) (map[uint64][]byte, ReplayInfo) {
	t.Helper()
	m := make(map[uint64][]byte)
	info, err := Replay(dir, func(kind Kind, key uint64, val []byte, fromCkpt bool) error {
		if kind == KindDelete {
			delete(m, key)
			return nil
		}
		m[key] = append([]byte(nil), val...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return m, info
}

// TestFsyncFailFailsAllGroupCommitWaiters pins the group-commit error
// contract: when the leader's fsync fails, every waiter covered by
// that round gets the error (not just the leader), the synced LSN
// does not advance, and nothing hangs.
func TestFsyncFailFailsAllGroupCommitWaiters(t *testing.T) {
	reg := fault.New(1)
	reg.MustAdd(fault.Rule{Point: "wal.fsync", Always: true, Act: fault.ActError})
	l, err := Open(t.TempDir(), faultOpts(reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const workers = 8
	errs := make([]error, workers)
	var start, done sync.WaitGroup
	start.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			lsn, aerr := l.Append(KindPut, uint64(i), []byte("v"))
			start.Done()
			start.Wait() // rendezvous: everyone appends before anyone commits
			if aerr != nil {
				errs[i] = aerr
				return
			}
			errs[i] = l.Commit(lsn)
		}(i)
	}
	done.Wait()

	for i, err := range errs {
		if err == nil {
			t.Errorf("waiter %d got a nil Commit error despite the failed fsync", i)
		} else if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("waiter %d got %v, want the injected error", i, err)
		}
	}
	if d := l.Durable(); d != 0 {
		t.Errorf("synced LSN advanced to %d across a failed fsync", d)
	}
	// The log is poisoned: later appends fail fast with the same error.
	if _, err := l.Append(KindPut, 99, nil); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("append after failed fsync: %v, want sticky injected error", err)
	}
}

// TestRotateFailLeavesLogReplayable: a failed segment open during
// rotation poisons the log but everything flushed before the failure
// replays. The first wal.open call is Open's initial segment; the
// second is the rotation.
func TestRotateFailLeavesLogReplayable(t *testing.T) {
	reg := fault.New(1)
	reg.MustAdd(fault.Rule{Point: "wal.open", Nth: 2, Act: fault.ActError})
	dir := t.TempDir()
	l, err := Open(dir, faultOpts(reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 50; i++ {
		v := binary.LittleEndian.AppendUint64(nil, i*7)
		if _, err := l.Append(KindPut, i, v); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[i] = v
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Rotate: %v, want injected error", err)
	}
	if _, err := l.Append(KindPut, 999, nil); err == nil {
		t.Fatalf("append succeeded on a poisoned log")
	}
	got, info := replayMap(t, dir)
	if info.Records != 50 || len(got) != 50 {
		t.Fatalf("replayed %d records / %d keys, want 50/50", info.Records, len(got))
	}
	for k, v := range want {
		if string(got[k]) != string(v) {
			t.Fatalf("key %d replayed %q, want %q", k, got[k], v)
		}
	}
}

// TestCheckpointRenameFailKeepsHistoryReplayable: if the checkpoint's
// rename-into-place fails, WriteCheckpoint reports it, the tmp file
// is cleaned up, and the pre-checkpoint segments still replay the full
// model.
func TestCheckpointRenameFailKeepsHistoryReplayable(t *testing.T) {
	reg := fault.New(1)
	reg.MustAdd(fault.Rule{Point: "wal.rename", Nth: 1, Act: fault.ActError})
	dir := t.TempDir()
	l, err := Open(dir, faultOpts(reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 40; i++ {
		v := binary.LittleEndian.AppendUint64(nil, i^0xabcd)
		if _, err := l.Append(KindPut, i, v); err != nil {
			t.Fatalf("append: %v", err)
		}
		want[i] = v
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	dump := func(emit func(key uint64, val []byte) error) error {
		for k, v := range want {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := l.WriteCheckpoint(boundary, dump); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteCheckpoint: %v, want injected rename error", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("checkpoint tmp %s left behind after failed rename", e.Name())
		}
	}
	got, info := replayMap(t, dir)
	if info.Boundary != 0 {
		t.Fatalf("replay found a checkpoint (boundary %d) after a failed publish", info.Boundary)
	}
	for k, v := range want {
		if string(got[k]) != string(v) {
			t.Fatalf("key %d replayed %q, want %q", k, got[k], v)
		}
	}
	// The log itself is still healthy — the checkpoint path never
	// touches the append stream.
	if _, err := l.Append(KindPut, 1000, nil); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestTornWriteTruncatesOnReplay: a short write mid-stream yields a
// torn tail; Replay delivers the intact prefix and reports Truncated.
func TestTornWriteTruncatesOnReplay(t *testing.T) {
	reg := fault.New(1)
	// Records below are 17+7 = 24 bytes each; the flush arrives as one
	// big write. Let two records plus a sliver of the third's header
	// through, so the tail is genuinely torn (a tear on an exact record
	// boundary would read as a clean EOF).
	reg.MustAdd(fault.Rule{Point: "wal.write", Nth: 1, Act: fault.ActShort, Bytes: 50})
	dir := t.TempDir()
	l, err := Open(dir, faultOpts(reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := uint64(0); i < 5; i++ {
		if _, err := l.Append(KindPut, i, []byte("v000000")[:7]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync: %v, want injected torn write", err)
	}
	got, info := replayMap(t, dir)
	if !info.Truncated {
		t.Fatalf("replay of a torn segment did not report Truncated")
	}
	if info.Records != 2 || len(got) != 2 {
		t.Fatalf("replayed %d records / %d keys past a 48-byte tear, want 2/2", info.Records, len(got))
	}
}

// TestCheckpointTmpWriteFailCleansUp: an fsync failure on the tmp file
// (before the rename) aborts the checkpoint and removes the tmp.
func TestCheckpointTmpWriteFailCleansUp(t *testing.T) {
	dir := t.TempDir()
	reg := fault.New(1)
	l, err := Open(dir, faultOpts(reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(KindPut, 1, []byte("x")); err != nil {
		t.Fatalf("append: %v", err)
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Arm only now: the next fsync is the checkpoint tmp's.
	reg.MustAdd(fault.Rule{Point: "wal.fsync", Always: true, Act: fault.ActError})
	err = l.WriteCheckpoint(boundary, func(emit func(key uint64, val []byte) error) error {
		return emit(1, []byte("x"))
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WriteCheckpoint: %v, want injected fsync error", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), ".ck") {
			t.Errorf("failed checkpoint left %s behind", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Errorf("segment vanished after failed checkpoint: %v", err)
	}
}

// TestCloseReturnsFinalFlushAndSyncErrors pins Close's promise that a
// nil return means every appended record is durable: a failed final
// flush and a failed fsync of the active segment both come back from
// Close, not just from a later Sync that no one calls.
func TestCloseReturnsFinalFlushAndSyncErrors(t *testing.T) {
	for _, spec := range []string{"wal.write:nth=1:error", "wal.fsync:nth=1:error"} {
		t.Run(spec, func(t *testing.T) {
			reg, err := fault.Parse(1, spec)
			if err != nil {
				t.Fatal(err)
			}
			l, err := Open(t.TempDir(), faultOpts(reg))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := l.Append(KindPut, 1, []byte("v")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := l.Close(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Close = %v, want the injected error", err)
			}
		})
	}
}
