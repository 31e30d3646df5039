package shardedkv

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
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
			lastPerShard[st.shardFor(k)] = k
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
	seqPut(st, w, n, 1, nil)
	st.CrashDrop()
	for _, sh := range st.shards {
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
	victimShard := st.shardFor(0)
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
	shards := st.shards
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

// TestDurableBatchCrash kills the store right after sync-waited
// MultiPuts on an AsyncStore, each shard's share riding one group
// commit. With no Flush and no clean Close, recovery must still return
// every acked pair at its last acked value — a share whose commit was
// skipped would be lost here.
func TestDurableBatchCrash(t *testing.T) {
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
			for _, kvs := range [][]Pair{span(0, 200, 1), span(50, 150, 2), span(0, 100, 3)} {
				if _, err := a.MultiPut(w, kvs); err != nil {
					t.Fatal(err)
				}
			}
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

// TestDurableCloseKeepsBulkWrites pins the shutdown leg of the bulk
// durability promise (docs/protocol.md: durable "with a later batch,
// an OpFlush, or shutdown"): bulk puts acked under the class default
// (SyncAsync), so still in the append buffers, must all read back
// after a clean Close and a reopen.
func TestDurableCloseKeepsBulkWrites(t *testing.T) {
	const n = 64
	cfg := Config{Shards: 4, Durability: &DurabilityConfig{Dir: t.TempDir()}}
	st := New(cfg)
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	seqPut(st, w, n, 1, nil)
	st.Close(w)
	st2 := New(cfg)
	defer st2.Close(w)
	for k := uint64(0); k < n; k++ {
		if v, ok := st2.Get(w, k); !ok || !bytes.Equal(v, verValue(k, 1)) {
			t.Errorf("Get(%d) after Close and reopen = %x,%v; want version 1", k, v, ok)
		}
	}
}

// TestWriteCurrentGenSurfacesFsyncError: if the fsync of CURRENT's
// temporary fails, the flip must fail and CURRENT must stay unflipped;
// acking it would let a crash leave CURRENT naming a generation whose
// name never reached the disk.
func TestWriteCurrentGenSurfacesFsyncError(t *testing.T) {
	dir := t.TempDir()
	reg, err := fault.Parse(1, "wal.fsync:nth=1:error")
	if err != nil {
		t.Fatal(err)
	}
	fs := wal.FaultFS{Reg: reg}
	if err := writeCurrentGen(fs, dir, 7); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("writeCurrentGen = %v, want the injected fsync error", err)
	}
	if n, err := readCurrentGen(dir); n != 0 || err != nil {
		t.Fatalf("CURRENT names gen %d (err %v) after its fsync failed", n, err)
	}
	// The nth=1 rule is spent: the retry flips.
	if err := writeCurrentGen(fs, dir, 7); err != nil {
		t.Fatalf("writeCurrentGen retry: %v", err)
	}
	if n, err := readCurrentGen(dir); n != 7 || err != nil {
		t.Fatalf("CURRENT names gen %d (err %v), want 7", n, err)
	}
}

// TestCheckpointSurfacesWriteFault fails every file write once each
// shard holds more than one append buffer (64 KiB) of data, so a
// checkpoint dump hits the fault mid-emit. Store.Checkpoint and the
// recovery checkpoint inside Open must both return the injected error,
// and the history a failed checkpoint leaves must replay in full.
// hashkv checkpoints from an in-memory dump, lsm from a snapshot.
func TestCheckpointSurfacesWriteFault(t *testing.T) {
	for _, spec := range AllEngines() {
		if spec.Name != "hashkv" && spec.Name != "lsm" {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			const n = 512
			dir := t.TempDir()
			reg := fault.New(1)
			cfg := durCfg(dir, spec.New)
			cfg.Durability.Bulk = SyncAsync
			cfg.Durability.FS = wal.FaultFS{Reg: reg}
			st := New(cfg)
			w := core.NewWorker(core.WorkerConfig{Class: core.Little})
			val := make([]byte, 1<<10)
			for k := uint64(0); k < n; k++ {
				st.Put(w, k, val)
			}
			if err := st.Flush(w); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			reg.MustAdd(fault.Rule{Point: "wal.write", Always: true, Act: fault.ActError})
			if err := st.Checkpoint(w); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Checkpoint = %v, want the injected write error", err)
			}
			st.Close(w)
			if _, err := Open(cfg); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Open = %v, want the recovery checkpoint's injected write error", err)
			}
			st2 := New(durCfg(dir, spec.New))
			defer st2.Close(w)
			for k := uint64(0); k < n; k++ {
				if v, ok := st2.Get(w, k); !ok || len(v) != len(val) {
					t.Fatalf("Get(%d) after the failed checkpoints = %d bytes,%v; want %d", k, len(v), ok, len(val))
				}
			}
		})
	}
}

// TestRecoveryCopiesEachValueOnce pins recovery at about one heap
// object per replayed record: wal.Replay reads each value into a slice
// of its own, and replayGeneration hands that slice to the engine as
// is, for checkpoint and segment records alike. Half the 10 000 records
// come from a checkpoint and half from segments, so a second copy of
// either kind adds 0.5 objects per record.
func TestRecoveryCopiesEachValueOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const half = 5000
	cfg := Config{
		Shards:    4,
		NewEngine: func(int) Engine { return NewHashEngine(0) },
		Durability: &DurabilityConfig{
			Dir:         t.TempDir(),
			Interactive: SyncAsync,
		},
	}
	w := newTestWorker()
	val := bytes.Repeat([]byte{7}, 64)
	// The second open checkpoints the first half into a new generation,
	// whose segments then take the second half.
	for _, lo := range []uint64{0, half} {
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := lo; k < lo+half; k++ {
			st.Put(w, k, val)
		}
		st.Close(w)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Open(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(w)
	if n := st.Len(w); n != 2*half {
		t.Fatalf("recovered %d keys, want %d", n, 2*half)
	}
	per := float64(after.Mallocs-before.Mallocs) / (2 * half)
	t.Logf("recovery: %.3f objects per record", per)
	if per > 1.1 {
		t.Fatalf("recovery allocated %.2f objects per record, want at most 1.1", per)
	}
}
