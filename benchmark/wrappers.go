package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file holds the timing wrappers a traced pass installs at the seams
// the program already exposes: Config.NewLock, Config.NewEngine,
// DurabilityConfig.FS and kvclient.Options.WrapConn. They change what the
// program is given, never the program.

// lockStats are one shard lock's sums over the measured window, by the
// effective class of the acquiring worker.
type lockStats struct {
	takes    [2]uint64
	waited   [2]uint64 // acquires that waited at least waitedNs
	waitNs   [2]int64
	holdNs   [2]int64
	engineNs [2]int64 // engine time inside holds
	windowNs [2]int64 // reorder-window samples (worker inside an epoch)
	windowN  [2]uint64
	wait     [2]*stats.Histogram
	hold     *stats.Histogram
}

const waitedNs = 1000

func newLockStats() lockStats {
	return lockStats{wait: [2]*stats.Histogram{stats.NewHistogram(), stats.NewHistogram()}, hold: stats.NewHistogram()}
}

func (s *lockStats) add(o *lockStats) {
	for c := 0; c < 2; c++ {
		s.takes[c] += o.takes[c]
		s.waited[c] += o.waited[c]
		s.waitNs[c] += o.waitNs[c]
		s.holdNs[c] += o.holdNs[c]
		s.engineNs[c] += o.engineNs[c]
		s.windowNs[c] += o.windowNs[c]
		s.windowN[c] += o.windowN[c]
		s.wait[c].Merge(o.wait[c])
	}
	s.hold.Merge(o.hold)
}

// timedLock times a shard lock from outside: Acquire entry to acquired is
// wait, acquired to Release is hold. Every field after tryFail is written
// only between a successful acquire and the matching release, so the
// wrapped lock itself guards them.
type timedLock struct {
	inner   locks.WLock
	tr      *tracer
	tryFail atomic.Uint64

	held     bool
	rec      bool // the hold began inside the measured window
	class    int
	acquired int64
	engineNs int64 // engine time inside the current hold
	req      uint64
	root     int32 // the holder's request root span, -1 when unsampled
	holdSlot int32 // span slot reserved for this hold
	st       lockStats
}

// lockFactory and engineFactory wrap a store's lock and engine
// constructors. Each store open starts the registry afresh, so the sums
// read back belong to the store that served the measured window.
func (t *tracer) lockFactory(inner locks.Factory) locks.Factory {
	t.pendingLock, t.locks, t.engines = nil, nil, nil
	return func() locks.WLock {
		if t.pendingLock != nil && t.pairErr == nil {
			t.pairErr = errors.New("trace: two shard locks built with no engine between them; lock/engine pairing is unknown")
		}
		l := &timedLock{inner: inner(), tr: t, root: -1, holdSlot: -1, st: newLockStats()}
		t.pendingLock = l
		t.locks = append(t.locks, l)
		return l
	}
}

func (l *timedLock) Acquire(w *core.Worker) {
	t0 := l.tr.now()
	l.inner.Acquire(w)
	l.enter(w, t0)
}

func (l *timedLock) TryAcquire(w *core.Worker) bool {
	t0 := l.tr.now()
	if !l.inner.TryAcquire(w) {
		if l.tr.recording.Load() {
			l.tryFail.Add(1)
		}
		return false
	}
	l.enter(w, t0)
	return true
}

func (l *timedLock) enter(w *core.Worker, t0 int64) {
	t1 := l.tr.now()
	c := int(w.Class())
	l.held, l.class, l.acquired, l.engineNs = true, c, t1, 0
	l.root, l.holdSlot = -1, -1
	if l.rec = l.tr.recording.Load(); !l.rec {
		return
	}
	s := &l.st
	wait := t1 - t0
	s.takes[c]++
	s.waitNs[c] += wait
	s.wait[c].Record(wait)
	if wait >= waitedNs {
		s.waited[c]++
	}
	if w.InEpoch() {
		s.windowNs[c] += w.EpochWindow(w.CurrentEpoch())
		s.windowN[c]++
	}
	if l.req, l.root = l.tr.current(c); l.root >= 0 {
		l.tr.emit(span{name: spLockWait, class: uint8(c), combined: l.tr.combined, parent: l.root, req: l.req, start: t0, end: t1})
		l.holdSlot = l.tr.claim()
	}
}

func (l *timedLock) Release(w *core.Worker) {
	if l.rec {
		t2 := l.tr.now()
		c := l.class
		l.st.holdNs[c] += t2 - l.acquired
		l.st.engineNs[c] += l.engineNs
		l.st.hold.Record(t2 - l.acquired)
		l.tr.fill(l.holdSlot, span{name: spLockHold, class: uint8(c), combined: l.tr.combined, parent: l.root, req: l.req, start: l.acquired, end: t2})
	}
	l.held = false
	l.inner.Release(w)
}

// engineStats are one shard engine's sums over the measured window.
type engineStats struct {
	gets, puts, deletes, ranges uint64
	pairs                       uint64 // pairs emitted by range walks
	getNs, putNs, deleteNs      int64
	rangeNs                     int64
	// unheld counts engine calls inside the measured window made while
	// the paired lock was not held: the pairing is broken if there are any.
	unheld uint64
}

func (s *engineStats) add(o *engineStats) {
	s.gets += o.gets
	s.puts += o.puts
	s.deletes += o.deletes
	s.ranges += o.ranges
	s.pairs += o.pairs
	s.getNs += o.getNs
	s.putNs += o.putNs
	s.deleteNs += o.deleteNs
	s.rangeNs += o.rangeNs
	s.unheld += o.unheld
}

func (s *engineStats) ops() uint64 { return s.gets + s.puts + s.deletes + s.ranges }
func (s *engineStats) ns() int64   { return s.getNs + s.putNs + s.deleteNs + s.rangeNs }

// timedEngine times every engine call. The store builds a shard's lock
// immediately before its engine, which is how the wrapper finds the lock
// that guards it; every call then checks that this lock is in fact held
// (unheld), so a change in construction order shows up as a failed trace
// instead of as misattributed time. Its fields are guarded by the shard
// lock, like the engine's own.
type timedEngine struct {
	inner shardedkv.Engine
	lk    *timedLock
	tr    *tracer
	st    engineStats
}

// The optional engine capabilities the store discovers by interface
// assertion. BatchRange and Scan are declared unexported in shardedkv, so
// they are restated here with identical method sets.
type batchRanger interface {
	BatchRange(reqs []shardedkv.RangeReq, emit func(req int, k uint64, v []byte))
}

type unorderedScanner interface {
	Scan(fn func(k uint64, v []byte) bool)
}

// The wrapper types, one per capability set an engine of this repository
// has, so a traced store takes exactly the fast paths the untraced one
// takes: hashkv has BatchRange and Scan, the LSM has Snapshotter and
// Compactor, btree and skiplist have none.
type (
	timedScanEngine struct {
		*timedEngine
		br batchRanger
		sc unorderedScanner
	}
	timedSnapEngine struct {
		*timedEngine
		storage.Snapshotter
		storage.Compactor
	}
)

// wrapEngine wraps inner, forwarding exactly its optional capabilities.
// A capability set no wrapper type carries is refused: tracing it would
// silently move the store onto a fallback path.
func wrapEngine(inner shardedkv.Engine, lk *timedLock, tr *tracer) (shardedkv.Engine, *timedEngine, error) {
	e := &timedEngine{inner: inner, lk: lk, tr: tr}
	br, hasBR := inner.(batchRanger)
	sc, hasScan := inner.(unorderedScanner)
	sn, hasSnap := inner.(storage.Snapshotter)
	cp, hasCompact := inner.(storage.Compactor)
	switch {
	case !hasBR && !hasScan && !hasSnap && !hasCompact:
		return e, e, nil
	case hasBR && hasScan && !hasSnap && !hasCompact:
		return &timedScanEngine{timedEngine: e, br: br, sc: sc}, e, nil
	case !hasBR && !hasScan && hasSnap && hasCompact:
		return &timedSnapEngine{timedEngine: e, Snapshotter: sn, Compactor: cp}, e, nil
	}
	return nil, nil, fmt.Errorf("trace: engine %T has a capability set (BatchRange=%v Scan=%v Snapshotter=%v Compactor=%v) no timing wrapper forwards",
		inner, hasBR, hasScan, hasSnap, hasCompact)
}

func (t *tracer) engineFactory(inner func(shard int) shardedkv.Engine) func(shard int) shardedkv.Engine {
	return func(shard int) shardedkv.Engine {
		lk := t.pendingLock
		t.pendingLock = nil
		if lk == nil {
			if t.pairErr == nil {
				t.pairErr = errors.New("trace: engine built with no shard lock before it; lock/engine pairing is unknown")
			}
			return inner(shard)
		}
		eng, te, err := wrapEngine(inner(shard), lk, t)
		if err != nil {
			if t.pairErr == nil {
				t.pairErr = err
			}
			return inner(shard)
		}
		t.engines = append(t.engines, te)
		return eng
	}
}

// done books one engine call that began at t0 and returns its duration;
// ok is false outside the measured window.
func (e *timedEngine) done(t0 int64) (d int64, ok bool) {
	lk := e.lk
	if !lk.held {
		if e.tr.recording.Load() {
			e.st.unheld++
		}
		return 0, false
	}
	if !lk.rec {
		return 0, false
	}
	t1 := e.tr.now()
	lk.engineNs += t1 - t0
	if lk.holdSlot >= 0 {
		e.tr.emit(span{name: spEngine, class: uint8(lk.class), combined: e.tr.combined, parent: lk.holdSlot, req: lk.req, start: t0, end: t1})
	}
	return t1 - t0, true
}

func (e *timedEngine) Get(k uint64) ([]byte, bool) {
	t0 := e.tr.now()
	v, ok := e.inner.Get(k)
	if d, rec := e.done(t0); rec {
		e.st.gets++
		e.st.getNs += d
	}
	return v, ok
}

func (e *timedEngine) Put(k uint64, v []byte) bool {
	t0 := e.tr.now()
	ins := e.inner.Put(k, v)
	if d, rec := e.done(t0); rec {
		e.st.puts++
		e.st.putNs += d
	}
	return ins
}

func (e *timedEngine) Delete(k uint64) bool {
	t0 := e.tr.now()
	ok := e.inner.Delete(k)
	if d, rec := e.done(t0); rec {
		e.st.deletes++
		e.st.deleteNs += d
	}
	return ok
}

func (e *timedEngine) Len() int { return e.inner.Len() }

func (e *timedEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	var pairs uint64
	t0 := e.tr.now()
	e.inner.Range(lo, hi, func(k uint64, v []byte) bool {
		pairs++
		return fn(k, v)
	})
	e.ranged(t0, 1, pairs)
}

func (e *timedEngine) ranged(t0 int64, scans, pairs uint64) {
	if d, rec := e.done(t0); rec {
		e.st.ranges += scans
		e.st.pairs += pairs
		e.st.rangeNs += d
	}
}

func (e *timedScanEngine) BatchRange(reqs []shardedkv.RangeReq, emit func(req int, k uint64, v []byte)) {
	var pairs uint64
	t0 := e.tr.now()
	e.br.BatchRange(reqs, func(req int, k uint64, v []byte) {
		pairs++
		emit(req, k, v)
	})
	e.ranged(t0, uint64(len(reqs)), pairs)
}

// Scan serves shard splits only; it is forwarded untimed.
func (e *timedScanEngine) Scan(fn func(k uint64, v []byte) bool) { e.sc.Scan(fn) }

// fsStats are the WAL filesystem's sums over the measured window. File
// writes and fsyncs run on whichever goroutine leads a group commit, so
// the counters are atomic.
type fsStats struct {
	writes, fsyncs             atomic.Uint64
	writeNs, fsyncNs, writeLen atomic.Int64
}

// timedFS times the file operations of the WAL. Only a sync-wait class
// commits, and interactive is the only sync-wait class the benchmark
// configures, so every fsync and every group-commit flush is attributed
// to the interactive request in flight.
type timedFS struct {
	base wal.FS
	tr   *tracer
}

func (f *timedFS) MkdirAll(dir string) error            { return f.base.MkdirAll(dir) }
func (f *timedFS) Rename(oldpath, newpath string) error { return f.base.Rename(oldpath, newpath) }
func (f *timedFS) Remove(name string) error             { return f.base.Remove(name) }
func (f *timedFS) SyncDir(dir string) error             { return f.base.SyncDir(dir) }

func (f *timedFS) Create(name string) (wal.File, error) {
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, tr: f.tr}, nil
}

func (f *timedFS) CreateTrunc(name string) (wal.File, error) {
	file, err := f.base.CreateTrunc(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, tr: f.tr}, nil
}

type timedFile struct {
	wal.File
	tr *tracer
}

func (f *timedFile) span(name spanName, t0, t1 int64) {
	if req, root := f.tr.current(interactive); root >= 0 {
		f.tr.emit(span{name: name, class: interactive, combined: f.tr.combined, parent: root, req: req, start: t0, end: t1})
	}
}

func (f *timedFile) Write(p []byte) (int, error) {
	if !f.tr.recording.Load() {
		return f.File.Write(p)
	}
	t0 := f.tr.now()
	n, err := f.File.Write(p)
	t1 := f.tr.now()
	st := &f.tr.fs
	st.writes.Add(1)
	st.writeNs.Add(t1 - t0)
	st.writeLen.Add(int64(n))
	f.span(spWalWrite, t0, t1)
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.tr.recording.Load() {
		return f.File.Sync()
	}
	t0 := f.tr.now()
	err := f.File.Sync()
	t1 := f.tr.now()
	st := &f.tr.fs
	st.fsyncs.Add(1)
	st.fsyncNs.Add(t1 - t0)
	f.span(spWalFsync, t0, t1)
	return err
}

// connStats count one client connection's socket calls and bytes over the
// measured window (the caller writes, the client's read loop reads).
type connStats struct {
	reads, writes, bytesIn, bytesOut atomic.Uint64
}

type countConn struct {
	net.Conn
	tr *tracer
	st *connStats
}

func (t *tracer) connWrapper(class int) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return &countConn{Conn: c, tr: t, st: &t.conns[class]} }
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.recording.Load() {
		c.st.reads.Add(1)
		c.st.bytesIn.Add(uint64(n))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.recording.Load() {
		c.st.writes.Add(1)
		c.st.bytesOut.Add(uint64(n))
	}
	return n, err
}
