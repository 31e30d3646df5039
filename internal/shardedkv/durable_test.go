package shardedkv

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
)

// Crash-point recovery suite: every test drives a durable store (or
// its pipeline front end), kills it at a chosen point — clean Close,
// kill -9 via CrashDrop, mid-checkpoint debris, mid-recovery debris,
// torn or corrupt segment tails — reopens the same directory, and
// demands the replayed store answer exactly like the sequential model
// that watched the workload. CrashDrop mirrors a process kill: the
// user-space append buffers vanish, nothing gets a parting fsync, so
// only what the group commits already pushed down survives.

// seqPut writes keys [0, n) at version ver and records, per shard, the
// last key routed to it (the key whose record sits at that shard's
// segment tail).
func seqPut(st *Store, w *core.Worker, n uint64, ver uint64, lastPerShard map[*shard]uint64) {
	for k := uint64(0); k < n; k++ {
		st.Put(w, k, verValue(k, ver))
		if lastPerShard != nil {
			lastPerShard[st.smap.Load().locate(hashOf(k))] = k
		}
	}
}

// newestSegment returns the path of the highest-indexed segment file
// in a shard's log directory (hex-padded names sort lexically).
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// durCfg builds a store config over dir with every write sync-waited,
// so the model is exact after a crash with no Flush: each op was
// durable before it returned.
func durCfg(dir string, eng func(int) Engine) Config {
	return Config{
		Shards:    4,
		NewEngine: eng,
		Reshard:   manualReshard(),
		Durability: &DurabilityConfig{
			Dir:         dir,
			Interactive: SyncWait,
			Bulk:        SyncWait,
		},
	}
}

// TestDurableTornTailTruncates appends garbage past every shard's last
// durable record — the torn tail a crash mid-write leaves — and
// demands recovery truncate it: reopen must not error, and every
// record written before the kill must survive.
func TestDurableTornTailTruncates(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	st := New(durCfg(dir, nil))
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	shards := st.smap.Load().shards
	seqPut(st, w, n, 1, nil)
	st.CrashDrop()
	for _, sh := range shards {
		seg := newestSegment(t, sh.wal.Dir())
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("torn-tail-garbage\x00\xff\x13")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	st2 := New(durCfg(dir, nil))
	for k := uint64(0); k < n; k++ {
		v, ok := st2.Get(w, k)
		if !ok || !bytes.Equal(v, verValue(k, 1)) {
			t.Errorf("Get(%d) after torn-tail recovery = %x,%v; want version 1", k, v, ok)
		}
	}
	st2.Close(w)
}

// TestDurableCorruptChecksumTruncates flips a byte inside one shard's
// final record: its checksum must fail and replay must cut the stream
// exactly there — that one key lost, every other key intact, no panic.
func TestDurableCorruptChecksumTruncates(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	st := New(durCfg(dir, nil))
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	lastPerShard := map[*shard]uint64{}
	seqPut(st, w, n, 1, lastPerShard)
	st.CrashDrop()
	// Corrupt exactly one shard's tail record: the last key written to
	// the shard that owns key 0.
	victimShard := st.smap.Load().locate(hashOf(0))
	victim := lastPerShard[victimShard]
	seg := newestSegment(t, victimShard.wal.Dir())
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := New(durCfg(dir, nil))
	for k := uint64(0); k < n; k++ {
		v, ok := st2.Get(w, k)
		if k == victim {
			if ok {
				t.Errorf("Get(%d) = %x: the corrupted record replayed anyway", k, v)
			}
			continue
		}
		if !ok || !bytes.Equal(v, verValue(k, 1)) {
			t.Errorf("Get(%d) after corrupt-tail recovery = %x,%v; want version 1", k, v, ok)
		}
	}
	st2.Close(w)
}

// TestDurableCrashMidCheckpoint covers the two checkpoint crash
// windows: after a completed checkpoint plus more appends (recovery
// must replay checkpoint prefix THEN segment tail, preserving per-key
// order across the boundary), and a checkpoint killed before its
// rename (only a *.tmp left behind, which replay must ignore).
func TestDurableCrashMidCheckpoint(t *testing.T) {
	const n = 150
	dir := t.TempDir()
	st := New(durCfg(dir, nil))
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	seqPut(st, w, n, 1, nil)
	if err := st.Checkpoint(w); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	shards := st.smap.Load().shards
	for _, sh := range shards {
		if cks, _ := filepath.Glob(filepath.Join(sh.wal.Dir(), "ckpt-*.ck")); len(cks) == 0 {
			t.Fatalf("shard %d has no checkpoint file after Checkpoint", sh.id)
		}
	}
	// Overwrite the upper two thirds after the checkpoint so the replay
	// boundary sits inside live keys.
	for k := uint64(n / 3); k < n; k++ {
		st.Put(w, k, verValue(k, 2))
	}
	st.CrashDrop()
	// Debris of a second checkpoint killed before its rename.
	tmp := filepath.Join(shards[0].wal.Dir(), "ckpt-00000000000000ff.ck.tmp")
	if err := os.WriteFile(tmp, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := New(durCfg(dir, nil))
	for k := uint64(0); k < n; k++ {
		want := verValue(k, 1)
		if k >= n/3 {
			want = verValue(k, 2)
		}
		if v, ok := st2.Get(w, k); !ok || !bytes.Equal(v, want) {
			t.Errorf("Get(%d) across checkpoint boundary = %x,%v; want %x", k, v, ok, want)
		}
	}
	st2.Close(w)
}

// TestDurableCrashMidRecovery simulates a recovery that died before
// flipping CURRENT: the next generation's directory exists with debris
// in it, but CURRENT still names the old one. Reopening must recover
// from CURRENT, absorb or discard the debris, and a further
// close/reopen cycle must still verify — the debris cannot poison the
// durable history.
func TestDurableCrashMidRecovery(t *testing.T) {
	const n = 120
	dir := t.TempDir()
	st := New(durCfg(dir, nil))
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	seqPut(st, w, n, 1, nil)
	st.Close(w)
	gen, err := readCurrentGen(dir)
	if err != nil || gen == 0 {
		t.Fatalf("readCurrentGen = %d, %v", gen, err)
	}
	// Debris where the next recovery will open its logs.
	debris := shardWalDir(genDirName(dir, gen+1), 0)
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(debris, "seg-0000000000000001.wal"), []byte("crashed mid-recovery"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store) {
		t.Helper()
		for k := uint64(0); k < n; k++ {
			if v, ok := st.Get(w, k); !ok || !bytes.Equal(v, verValue(k, 1)) {
				t.Errorf("Get(%d) = %x,%v; want version 1", k, v, ok)
			}
		}
	}
	st2 := New(durCfg(dir, nil))
	check(st2)
	st2.Close(w)
	st3 := New(durCfg(dir, nil))
	check(st3)
	st3.Close(w)
	// Exactly one generation directory may remain live.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for _, e := range ents {
		if e.IsDir() {
			gens++
		}
	}
	if gens != 1 {
		t.Errorf("%d generation directories left after recovery; want 1", gens)
	}
}

// TestDurableBatchCrashAfterSplit kills the store right after batches
// that crossed a split: a sync-waited MultiPut that went to the
// children's own rings, then one whose sub-batches were drained from
// retired rings (routed under the pre-split map, re-routed pair by pair
// to the children, one commit per child log). With no Flush and no
// clean Close, recovery must still return every acked pair at its last
// acked value — a child log left uncommitted would lose its share here.
func TestDurableBatchCrashAfterSplit(t *testing.T) {
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			st := New(durCfg(dir, spec.New))
			a := NewAsync(st, AsyncConfig{})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			span := func(lo, hi, ver uint64) []Pair {
				kvs := make([]Pair, 0, hi-lo)
				for k := lo; k < hi; k++ {
					kvs = append(kvs, Pair{Key: k, Value: verValue(k, ver)})
				}
				return kvs
			}
			if _, err := a.MultiPut(w, span(0, 200, 1)); err != nil {
				t.Fatal(err)
			}
			stale := st.smap.Load()
			for _, k := range []uint64{0, 1, 2, 0} {
				if !st.ForceSplit(w, k) {
					t.Fatalf("forced split at key %d refused", k)
				}
			}
			if _, err := a.MultiPut(w, span(50, 150, 2)); err != nil {
				t.Fatal(err)
			}
			// Last, so that no later commit covers for a missed one.
			b := routed(a, stale, nil, span(0, 100, 3))
			b.syncWait = true
			for _, r := range b.reqs {
				r.syncWait = true
			}
			a.runBatch(w, b)
			if b.err != nil {
				t.Fatal(b.err)
			}
			a.freeBatch(b)
			st.CrashDrop()

			st2 := New(durCfg(dir, spec.New))
			for k := uint64(0); k < 200; k++ {
				ver := uint64(1)
				switch {
				case k < 100:
					ver = 3
				case k < 150:
					ver = 2
				}
				if v, ok := st2.Get(w, k); !ok || !bytes.Equal(v, verValue(k, ver)) {
					t.Errorf("Get(%d) after the crash = %x,%v; want acked version %d", k, v, ok, ver)
				}
			}
			st2.Close(w)
		})
	}
}
