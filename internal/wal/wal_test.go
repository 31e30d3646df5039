package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// Durable reports the highest LSN known durable.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

type rec struct {
	kind Kind
	key  uint64
	val  []byte
}

func collect(t *testing.T, dir string) ([]rec, ReplayInfo) {
	t.Helper()
	var out []rec
	info, err := Replay(dir, func(kind Kind, key uint64, val []byte, _ bool) error {
		out = append(out, rec{kind, key, append([]byte(nil), val...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, info
}

func TestAppendCommitReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(KindPut, uint64(i), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if _, err := l.Append(KindDelete, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(last + 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, info := collect(t, dir)
	if len(recs) != 101 {
		t.Fatalf("replayed %d records, want 101", len(recs))
	}
	if info.Truncated {
		t.Fatal("unexpected truncation on clean log")
	}
	if recs[3].kind != KindPut || recs[3].key != 3 || !bytes.Equal(recs[3].val, []byte("v3")) {
		t.Fatalf("record 3 = %+v", recs[3])
	}
	if recs[100].kind != KindDelete || recs[100].key != 7 {
		t.Fatalf("record 100 = %+v", recs[100])
	}
}

// TestGroupCommitPiggyback drives many concurrent committers and
// checks durability holds while fsync count stays far below the
// record count — the group-commit invariant.
func TestGroupCommitPiggyback(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const G, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(KindPut, uint64(g*per+i), []byte("x"))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
				if l.Durable() < lsn {
					t.Errorf("Commit returned with durable %d < lsn %d", l.Durable(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appended != G*per {
		t.Fatalf("appended %d, want %d", st.Appended, G*per)
	}
	if st.Syncs == 0 || st.Syncs > st.Appended {
		t.Fatalf("syncs %d out of range (appended %d)", st.Syncs, st.Appended)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != G*per {
		t.Fatalf("replayed %d, want %d", len(recs), G*per)
	}
}

func TestSegmentRotationAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := l.Append(KindPut, 42, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("expected rotations with a 256-byte segment threshold")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("v%03d", i); string(r.val) != want {
			t.Fatalf("record %d out of order: got %q want %q", i, r.val, want)
		}
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(KindPut, uint64(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listDir: %v %v", segs, err)
	}
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: leave 9.5 records.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, info := collect(t, dir)
	if !info.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	if len(recs) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(recs))
	}
}

func TestCorruptChecksumTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(KindPut, uint64(i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := listDir(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the 6th record. Each record here is
	// 8 (header) + 1 + 8 + 5 (value) = 22 bytes.
	data[5*22+recHeader+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, info := collect(t, dir)
	if !info.Truncated {
		t.Fatal("corrupt checksum not reported as truncated")
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records past corruption, want 5", len(recs))
	}
}

func TestCheckpointTruncatesHistory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	state := map[uint64][]byte{}
	for i := 0; i < 50; i++ {
		k, v := uint64(i%10), []byte(fmt.Sprintf("v%d", i))
		if _, err := l.Append(KindPut, k, v); err != nil {
			t.Fatal(err)
		}
		state[k] = v
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(boundary, func(emit func(uint64, []byte) error) error {
		for k, v := range state {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail.
	if _, err := l.Append(KindDelete, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, ckpts, _ := listDir(dir)
	if len(ckpts) != 1 || ckpts[0] != boundary {
		t.Fatalf("ckpts = %v, want [%d]", ckpts, boundary)
	}
	for _, s := range segs {
		if s < boundary {
			t.Fatalf("segment %d survived checkpoint at %d", s, boundary)
		}
	}

	got := map[uint64][]byte{}
	sawCkpt := false
	_, err = Replay(dir, func(kind Kind, key uint64, val []byte, fromCkpt bool) error {
		sawCkpt = sawCkpt || fromCkpt
		if kind == KindDelete {
			delete(got, key)
		} else {
			got[key] = append([]byte(nil), val...)
		}
		return nil
	})
	if !sawCkpt {
		t.Fatal("no records attributed to the checkpoint")
	}
	if err != nil {
		t.Fatal(err)
	}
	delete(state, 3)
	if len(got) != len(state) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(state))
	}
	for k, v := range state {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d: got %q want %q", k, got[k], v)
		}
	}
}

// TestCrashDropLosesOnlyUncommitted pins the crash-simulation
// semantics the recovery suite builds on: committed records survive
// CrashDrop, buffered-but-uncommitted ones may vanish.
func TestCrashDropLosesOnlyUncommitted(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var committed uint64
	for i := 0; i < 20; i++ {
		lsn, err := l.Append(KindPut, uint64(i), []byte("durable"))
		if err != nil {
			t.Fatal(err)
		}
		committed = lsn
	}
	if err := l.Commit(committed); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		if _, err := l.Append(KindPut, uint64(i), []byte("volatile")); err != nil {
			t.Fatal(err)
		}
	}
	l.CrashDrop()

	recs, info := collect(t, dir)
	if info.Truncated {
		t.Fatal("clean crash drop should not look torn")
	}
	if uint64(len(recs)) < committed {
		t.Fatalf("lost committed records: replayed %d, committed %d", len(recs), committed)
	}
	if len(recs) != 20 {
		t.Fatalf("buffered records leaked to disk without flush: %d", len(recs))
	}
}

func TestMidCheckpointCrashLeavesOldHistory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(KindPut, uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a partial tmp file exists but
	// was never renamed.
	if err := os.WriteFile(filepath.Join(dir, ckptName(boundary)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.CrashDrop()
	recs, info := collect(t, dir)
	if info.Boundary != 0 {
		t.Fatalf("tmp checkpoint must be ignored, got boundary %d", info.Boundary)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d, want 10", len(recs))
	}
}

func TestOpenAfterCrashStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindPut, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.CrashDrop()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(KindPut, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != 2 || recs[0].key != 1 || recs[1].key != 2 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestOpsPerFsync(t *testing.T) {
	s := Stats{Appended: 128, Syncs: 4}
	if got := s.OpsPerFsync(); got != 32 {
		t.Fatalf("OpsPerFsync = %v, want 32", got)
	}
	if (Stats{}).OpsPerFsync() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

// handleFS is the real filesystem, counting the file handles it has
// handed out that are not yet closed.
type handleFS struct {
	OSFS
	open atomic.Int64
}

func (fs *handleFS) Create(name string) (File, error) { return fs.track(fs.OSFS.Create(name)) }

func (fs *handleFS) CreateTrunc(name string) (File, error) {
	return fs.track(fs.OSFS.CreateTrunc(name))
}

func (fs *handleFS) track(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	fs.open.Add(1)
	return &handleFile{File: f, fs: fs}, nil
}

type handleFile struct {
	File
	fs     *handleFS
	closed bool
}

func (f *handleFile) Close() error {
	if !f.closed {
		f.closed = true
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

// TestCrashDropClosesEveryHandle: CrashDrop drops the buffered records
// but, as a killed process's descriptors do, closes every segment handle
// the log holds — the sealed ones and the active one.
func TestCrashDropClosesEveryHandle(t *testing.T) {
	fs := &handleFS{}
	l, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindPut, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindPut, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if n := fs.open.Load(); n < 1 {
		t.Fatalf("%d segment handles open before the crash, want at least the active one", n)
	}
	l.CrashDrop()
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d segment handles still open after CrashDrop, want 0", n)
	}
}

// TestAppendAllocatesNothing pins Append at zero heap objects per
// record: writeRecord builds the frame header in the writer's free
// space. 1000 records of 81 bytes overrun the 64 KiB buffer, so the
// runs include a flush and the short-space path before it.
func TestAppendAllocatesNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	val := bytes.Repeat([]byte{7}, 64)
	key := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		if _, err := l.Append(KindPut, key, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v objects per record, want 0", allocs)
	}
}

// discardFS is an FS whose segment files drop what is written to them,
// so BenchmarkLogAppend measures framing and buffering, not the disk.
type discardFS struct{ OSFS }

func (discardFS) Create(string) (File, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// BenchmarkLogAppend is one 64-byte put appended to a shard log: the
// work a durable write adds under the shard lock.
func BenchmarkLogAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{FS: discardFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	val := bytes.Repeat([]byte{7}, 64)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := l.Append(KindPut, uint64(i), val); err != nil {
			b.Fatal(err)
		}
	}
}
