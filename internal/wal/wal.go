// Package wal implements the per-shard append-only log behind
// shardedkv's durability layer.
//
// Design (mirrors ARCHITECTURE.md "Durability"):
//
//   - One Log per shard, one directory per Log. Records are
//     length-prefixed and checksummed; segments rotate at a size
//     threshold so checkpoints can truncate history.
//   - Append is cheap and is the only call allowed while the owning
//     shard lock is held: it writes into a user-space buffer and
//     never issues fsync. Commit/Sync perform group commit — the
//     first waiter becomes the sync leader, flushes and fsyncs once,
//     and every waiter whose LSN is covered piggybacks on that single
//     sync. This is what makes durability cost one fsync per combiner
//     drain instead of one per op.
//   - Replay tolerates torn tails and corrupt checksums by truncating
//     (logical) at the first bad record; it never panics. Checkpoint
//     files are complete by construction (tmp + fsync + rename), so a
//     crash mid-checkpoint leaves only an ignorable *.tmp.
//
// Lock order: Log.mu is innermost — nothing else is acquired while it
// is held. The shard lock → Log.mu edge (Append during a drain) is
// therefore safe. That Commit, Sync, WriteCheckpoint and Close (the
// fsync-issuing calls) never run under a shard lock is checked where
// internal/shardedkv makes them: its shard-lock guard panics otherwise.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind tags a log record.
type Kind uint8

const (
	// KindPut records a key/value insert or overwrite.
	KindPut Kind = 1
	// KindDelete records a key removal.
	KindDelete Kind = 2
)

// Record framing: u32 payload length, u32 CRC32-C of the payload,
// then the payload (kind byte, 8-byte little-endian key, value bytes
// for puts). recHeader is the fixed prefix size.
const recHeader = 8

// maxPayload bounds a single record so a corrupt length prefix on
// replay cannot drive a huge allocation; it comfortably exceeds the
// wire protocol's MaxValueLen.
const maxPayload = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log. Zero values pick the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment.
	SegmentBytes int64
	// FS overrides the filesystem the log writes through (nil = the
	// real one). FaultFS is the fault-injection implementation.
	FS FS
}

const (
	defaultSegmentBytes = 4 << 20
	// bufBytes sizes the user-space append buffer and the checkpoint
	// writer's and replay reader's buffers.
	bufBytes = 64 << 10
)

// Stats is a point-in-time snapshot of a Log's counters.
// OpsPerFsync (Appended/Syncs) is the group-commit figure of merit:
// it climbs with the combiner batch size when group commit works.
type Stats struct {
	Appended  uint64 // records appended
	Syncs     uint64 // fsync batches issued (one per group commit)
	Rotations uint64
	Bytes     uint64 // payload+header bytes appended
}

// Add accumulates s2 into s (for per-store aggregation across shards).
func (s *Stats) Add(s2 Stats) {
	s.Appended += s2.Appended
	s.Syncs += s2.Syncs
	s.Rotations += s2.Rotations
	s.Bytes += s2.Bytes
}

// OpsPerFsync returns Appended/Syncs, the average number of records
// made durable per fsync.
func (s Stats) OpsPerFsync() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Appended) / float64(s.Syncs)
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Log is a single shard's append-only log. All methods are safe for
// concurrent use. Append may be called with the owning shard lock
// held; Commit, Sync, WriteCheckpoint and Close must not be.
type Log struct {
	dir  string
	opts Options
	fs   FS

	mu   sync.Mutex
	cond *sync.Cond // broadcast when synced advances or leadership frees

	f        File          // active segment
	w        *bufio.Writer // buffers appends into f
	segIndex uint64        // index of the active segment
	segBytes int64         // bytes appended to the active segment

	appended uint64 // LSN of the last appended record (1-based count)
	synced   uint64 // highest LSN known durable
	syncing  bool   // a group-commit leader is mid-fsync

	sealed      []File // rotated-out segments awaiting their first fsync
	needDirSync bool   // a segment file was created since the last sync

	stats  Stats
	err    error // sticky I/O error; poisons the log
	closed bool
}

// Open creates (or reuses) dir and returns a Log appending to a fresh
// segment numbered after any already present. Existing segments are
// left untouched — recovery reads them via Replay.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	segs, _, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	l := &Log{dir: dir, opts: opts, fs: fs, segIndex: next}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

func segName(idx uint64) string  { return fmt.Sprintf("seg-%016x.wal", idx) }
func ckptName(idx uint64) string { return fmt.Sprintf("ckpt-%016x.ck", idx) }

// openSegmentLocked starts segment l.segIndex. Callers hold l.mu (or
// own the Log exclusively during Open).
func (l *Log) openSegmentLocked() error {
	f, err := l.fs.Create(filepath.Join(l.dir, segName(l.segIndex)))
	if err != nil {
		return err
	}
	l.f = f
	if l.w == nil {
		l.w = bufio.NewWriterSize(f, bufBytes)
	} else {
		l.w.Reset(f)
	}
	l.segBytes = 0
	l.needDirSync = true
	return nil
}

// Append writes one record and returns its LSN. It buffers in user
// space and never fsyncs, so it is safe (and intended) to call while
// the owning shard lock is held. Durability is only promised once
// Commit(lsn) or Sync returns.
func (l *Log) Append(kind Kind, key uint64, val []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}

	payloadLen := 1 + 8
	if kind == KindPut {
		payloadLen += len(val)
	}
	if err := writeRecord(l.w, kind, key, val); err != nil {
		l.fail(err)
		return 0, err
	}
	n := int64(recHeader + payloadLen)
	l.segBytes += n
	l.stats.Bytes += uint64(n)
	l.appended++
	l.stats.Appended++
	lsn := l.appended

	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			return lsn, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment and opens the next one. No
// fsync happens here (rotation can run under a shard lock); the
// sealed file is fsynced by the next group-commit leader.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.f)
	l.segIndex++
	l.stats.Rotations++
	return l.openSegmentLocked()
}

// Rotate forces a segment boundary and returns the index of the new
// active segment: every record appended before the call lives in a
// segment with a strictly smaller index, which makes the return value
// a valid checkpoint boundary. Safe under the shard lock (no fsync).
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.rotateLocked(); err != nil {
		l.fail(err)
		return 0, err
	}
	return l.segIndex, nil
}

func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// Commit blocks until every record up to and including lsn is
// durable. Concurrent committers elect one leader per round; the
// leader flushes and fsyncs once, everyone covered piggybacks.
// Commit issues fsync and must never be called with a shard lock
// held (internal/shardedkv's shard-lock guard checks it).
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil && !l.closed && l.synced < lsn {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.leadSyncLocked()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed && l.synced < lsn {
		return ErrClosed
	}
	return nil
}

// Sync makes every record appended so far durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.appended
	l.mu.Unlock()
	return l.Commit(lsn)
}

// leadSyncLocked runs one group-commit round. Called with l.mu held
// and l.syncing false; returns with l.mu held.
func (l *Log) leadSyncLocked() {
	l.syncing = true
	target := l.appended
	var err error
	if err = l.w.Flush(); err != nil {
		l.syncing = false
		l.fail(err)
		return
	}
	sealed := l.sealed
	l.sealed = nil
	dirSync := l.needDirSync
	l.needDirSync = false
	active := l.f
	l.mu.Unlock()

	// The expensive part runs without the mutex so appenders keep
	// flowing into the next batch.
	if err == nil && dirSync {
		err = l.fs.SyncDir(l.dir)
	}
	for _, f := range sealed {
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = active.Sync()
	}

	l.mu.Lock()
	l.stats.Syncs++
	if err != nil {
		l.fail(err)
	} else if l.synced < target {
		l.synced = target
	}
	l.syncing = false
	l.cond.Broadcast()
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// WriteCheckpoint writes a checkpoint covering every record in
// segments with index < boundary (obtain boundary from Rotate), then
// removes those segments and any older checkpoints. dump must emit
// the full state as of the boundary. The checkpoint becomes visible
// atomically via rename, so a crash at any point leaves either the
// old history or the new checkpoint — never a half state. Issues
// fsync; must not run under a shard lock.
func (l *Log) WriteCheckpoint(boundary uint64, dump func(emit func(key uint64, val []byte) error) error) error {
	tmp := filepath.Join(l.dir, ckptName(boundary)+".tmp")
	f, err := l.fs.CreateTrunc(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, bufBytes)
	emit := func(key uint64, val []byte) error {
		return writeRecord(w, KindPut, key, val)
	}
	err = dump(emit)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(tmp)
		return err
	}
	if rerr := l.fs.Rename(tmp, filepath.Join(l.dir, ckptName(boundary))); rerr != nil {
		l.fs.Remove(tmp)
		return rerr
	}
	if serr := l.fs.SyncDir(l.dir); serr != nil {
		return serr
	}
	// History before the boundary is now redundant. Removal is
	// best-effort: leftovers are skipped by Replay's boundary rule.
	segs, ckpts, err := listDir(l.dir)
	if err != nil {
		return nil
	}
	for _, idx := range segs {
		if idx < boundary {
			l.fs.Remove(filepath.Join(l.dir, segName(idx)))
		}
	}
	for _, idx := range ckpts {
		if idx < boundary {
			l.fs.Remove(filepath.Join(l.dir, ckptName(idx)))
		}
	}
	return nil
}

// writeRecord frames one record onto w (shared by Append and
// checkpoint emission). The header is built in w's free space: a local
// array would escape through Write, one heap object per record.
func writeRecord(w *bufio.Writer, kind Kind, key uint64, val []byte) error {
	payloadLen := 1 + 8
	if kind == KindPut {
		payloadLen += len(val)
	}
	if w.Available() < recHeader+9 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := w.AvailableBuffer()[:recHeader+9]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	hdr[8] = byte(kind)
	binary.LittleEndian.PutUint64(hdr[9:17], key)
	crc := crc32.Update(0, castagnoli, hdr[8:17])
	if kind == KindPut {
		crc = crc32.Update(crc, castagnoli, val)
	}
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if kind == KindPut {
		if _, err := w.Write(val); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes, fsyncs and closes the log. Every record appended
// before Close is durable once it returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.cond.Wait()
	}
	var err error
	if l.err == nil {
		if err = l.w.Flush(); err != nil {
			l.fail(err)
		}
	}
	sealed := l.sealed
	l.sealed = nil
	active := l.f
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()

	for _, f := range sealed {
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if active != nil {
		if serr := active.Sync(); err == nil {
			err = serr
		}
		if cerr := active.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CrashDrop simulates kill -9 for crash tests: buffered-but-unflushed
// records vanish and file handles close without a final fsync. What
// had already reached the OS (flushed by a prior sync, rotation, or
// buffer spill) survives, exactly like a process kill on a live
// kernel. Test hook only.
func (l *Log) CrashDrop() {
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	sealed := l.sealed
	l.sealed = nil
	active := l.f
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, f := range sealed {
		f.Close()
	}
	if active != nil {
		active.Close()
	}
}

// listDir returns the sorted segment and checkpoint indices in dir.
// Unknown files (including *.tmp leftovers) are ignored.
func listDir(dir string) (segs, ckpts []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64); perr == nil {
				segs = append(segs, idx)
			}
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ck"):
			if idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ck"), 16, 64); perr == nil {
				ckpts = append(ckpts, idx)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	return segs, ckpts, nil
}

// ReplayInfo summarises a Replay pass.
type ReplayInfo struct {
	Boundary  uint64 // checkpoint boundary used (0 = none)
	Records   uint64 // records delivered to fn (checkpoint + segments)
	Truncated bool   // a torn tail or corrupt record cut the tail off
}

// Replay streams a shard's durable history — newest checkpoint first,
// then every segment at or past its boundary in ascending order — to
// fn in append order. fromCkpt distinguishes the checkpoint prefix
// (distinct keys, arbitrary order, bulk-loadable) from segment
// records (strictly ordered tail). A torn tail or corrupt checksum in
// a segment truncates the stream at that point (Truncated is set) and
// replay of that shard stops: records past a hole must not be applied
// or per-key ordering breaks. A missing or empty dir replays nothing.
// Corruption inside a checkpoint file is reported as an error since
// checkpoints are complete by construction. Each record's val is a
// fresh slice of its own, so fn may keep it.
func Replay(dir string, fn func(kind Kind, key uint64, val []byte, fromCkpt bool) error) (ReplayInfo, error) {
	var info ReplayInfo
	segs, ckpts, err := listDir(dir)
	if err != nil {
		return info, err
	}
	if len(ckpts) > 0 {
		info.Boundary = ckpts[len(ckpts)-1]
		n, truncated, err := replayFile(filepath.Join(dir, ckptName(info.Boundary)), func(kind Kind, key uint64, val []byte) error {
			return fn(kind, key, val, true)
		})
		info.Records += n
		if err != nil {
			return info, err
		}
		if truncated {
			return info, fmt.Errorf("wal: checkpoint %s corrupt", ckptName(info.Boundary))
		}
	}
	for _, idx := range segs {
		if idx < info.Boundary {
			continue
		}
		n, truncated, err := replayFile(filepath.Join(dir, segName(idx)), func(kind Kind, key uint64, val []byte) error {
			return fn(kind, key, val, false)
		})
		info.Records += n
		if err != nil {
			return info, err
		}
		if truncated {
			info.Truncated = true
			return info, nil
		}
	}
	return info, nil
}

// replayFile streams one file's records. truncated=true means a
// malformed record ended the scan early; err is reserved for I/O and
// fn errors.
func replayFile(path string, fn func(kind Kind, key uint64, val []byte) error) (n uint64, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, bufBytes)
	// hdr holds the frame and the payload's kind and key: one array per
	// file. Each value is read into a slice of its own, which fn keeps.
	hdr := new([recHeader + 9]byte)
	for {
		if _, err := io.ReadFull(r, hdr[:recHeader]); err != nil {
			if err == io.EOF {
				return n, false, nil
			}
			// Torn header.
			return n, true, nil
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if payloadLen < 9 || payloadLen > maxPayload {
			return n, true, nil
		}
		if _, err := io.ReadFull(r, hdr[recHeader:]); err != nil {
			return n, true, nil // torn payload
		}
		val := make([]byte, payloadLen-9)
		if _, err := io.ReadFull(r, val); err != nil {
			return n, true, nil // torn payload
		}
		if crc32.Update(crc32.Update(0, castagnoli, hdr[recHeader:]), castagnoli, val) != wantCRC {
			return n, true, nil
		}
		kind := Kind(hdr[recHeader])
		if kind != KindPut && kind != KindDelete {
			return n, true, nil
		}
		key := binary.LittleEndian.Uint64(hdr[recHeader+1:])
		if kind == KindDelete {
			val = nil
		}
		if err := fn(kind, key, val); err != nil {
			return n, false, err
		}
		n++
	}
}
