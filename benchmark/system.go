package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/wal"
)

// The cmd/kvserver flag defaults the benchmark serves with.
const (
	sloInteractive = 100 * time.Microsecond
	sloBulk        = 2 * time.Millisecond
)

// classSLO is each class's latency SLO. kvserver runs one epoch per SLO
// class; the class index doubles as its epoch id.
var classSLO = [2]time.Duration{interactive: sloInteractive, bulk: sloBulk}

// flushRule is durable-write's flush policy: every fsync costs a fixed
// 200 us on top of a device that keeps written bytes in memory until then
// (deviceFS). The sandbox disk's own fsync tail swings 4x run to run, so
// it cannot be the thing two commits are compared on.
const flushRule = "wal.fsync:always:delay=200us"

// deviceFS is the modelled storage device under the WAL: real files inside
// the benchmark's scratch directory, with fsync replaced by bookkeeping.
// Each file remembers how many bytes were written and how many of them a
// completed fsync covers; crash() cuts every file back to its synced
// length, which is what a power loss leaves of it. The durability check
// therefore reads back only bytes the program flushed before the crash.
type deviceFS struct {
	mu    sync.Mutex
	files map[string]*devState
}

type devState struct {
	written, synced atomic.Int64
}

func newDeviceFS() *deviceFS { return &deviceFS{files: make(map[string]*devState)} }

func (d *deviceFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (d *deviceFS) open(name string, flag int) (wal.File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	st := &devState{}
	d.mu.Lock()
	d.files[name] = st
	d.mu.Unlock()
	return &devFile{f: f, st: st}, nil
}

func (d *deviceFS) Create(name string) (wal.File, error) {
	return d.open(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL)
}

func (d *deviceFS) CreateTrunc(name string) (wal.File, error) {
	return d.open(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
}

func (d *deviceFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	d.mu.Lock()
	if st, ok := d.files[oldpath]; ok {
		delete(d.files, oldpath)
		d.files[newpath] = st
	}
	d.mu.Unlock()
	return nil
}

func (d *deviceFS) Remove(name string) error {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	return os.Remove(name)
}

// SyncDir is free on the modelled device: directory entries are durable
// when created.
func (d *deviceFS) SyncDir(string) error { return nil }

// crash drops every byte no completed fsync covered and forgets the files
// (the next Open starts a new generation with new ones). Files a
// generation flip already deleted are skipped.
func (d *deviceFS) crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for name, st := range d.files {
		if st.synced.Load() < st.written.Load() {
			err := os.Truncate(name, st.synced.Load())
			if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
				first = err
			}
		}
	}
	clear(d.files)
	return first
}

type devFile struct {
	f  *os.File
	st *devState
}

func (f *devFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	f.st.written.Add(int64(n))
	return n, err
}

// Sync covers the bytes written before it was called; an append racing
// with the group-commit leader's fsync is not promised durable.
func (f *devFile) Sync() error {
	f.st.synced.Store(f.st.written.Load())
	return nil
}

func (f *devFile) Close() error { return f.f.Close() }

// system is one assembled instance of the served stack, built only from
// the constructors cmd/kvserver itself uses.
type system struct {
	wl    *workload
	dir   string // WAL root; "" when the workload is volatile
	dev   *deviceFS
	tr    *tracer // nil when untraced
	store *shardedkv.Store
	async *shardedkv.AsyncStore
	srv   *kvserver.Server
}

// newSystem prepares a system for wl; a durable workload keeps its WAL
// under scratch on a fresh modelled device.
func newSystem(wl *workload, scratch string, tr *tracer) *system {
	s := &system{wl: wl, tr: tr}
	if wl.durable {
		s.dir, s.dev = scratch, newDeviceFS()
	}
	return s
}

func engineSpec(name string) (shardedkv.EngineSpec, error) {
	for _, e := range shardedkv.AllEngines() {
		if e.Name == name {
			return e, nil
		}
	}
	return shardedkv.EngineSpec{}, fmt.Errorf("unknown engine %q", name)
}

// openStore builds the store (and the combining front end when the
// workload asks for it) with the kvserver defaults: locks.FactoryASL, no
// CSPad, no reshard, no bias. With a tracer the lock, engine and WAL
// filesystem seams get timing wrappers; nothing else differs.
func (s *system) openStore() error {
	spec, err := engineSpec(s.wl.engine)
	if err != nil {
		return err
	}
	cfg := shardedkv.Config{Shards: s.wl.shards, NewEngine: spec.New, NewLock: locks.FactoryASL()}
	if s.tr != nil {
		cfg.NewLock = s.tr.lockFactory(cfg.NewLock)
		cfg.NewEngine = s.tr.engineFactory(cfg.NewEngine)
	}
	if s.wl.durable {
		reg, perr := fault.Parse(1, flushRule)
		if perr != nil {
			return perr
		}
		var fsys wal.FS = wal.FaultFS{Reg: reg, Base: s.dev}
		if s.tr != nil {
			fsys = &timedFS{base: fsys, tr: s.tr}
		}
		cfg.Durability = &shardedkv.DurabilityConfig{Dir: s.dir, FS: fsys}
	}
	st, err := shardedkv.Open(cfg)
	if err != nil {
		return err
	}
	if s.tr != nil && s.tr.pairErr != nil {
		return s.tr.pairErr
	}
	s.store, s.async = st, nil
	if s.wl.pipeline {
		s.async = shardedkv.NewAsync(st, shardedkv.AsyncConfig{})
	}
	return nil
}

// kv is the operation surface the server (and the direct pass) drives.
func (s *system) kv() shardedkv.KV {
	if s.async != nil {
		return s.async
	}
	return s.store
}

func (s *system) serve() error {
	srv, err := kvserver.New(kvserver.Config{
		Store:          s.store,
		Async:          s.async,
		SLOInteractive: sloInteractive,
		SLOBulk:        sloBulk,
	})
	if err != nil {
		return err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *system) dial(class int) (*kvclient.Client, error) {
	var opts kvclient.Options
	if s.tr != nil {
		opts.WrapConn = s.tr.connWrapper(class)
	}
	return kvclient.DialOpts(s.srv.Addr().String(), opts)
}

// closeStore shuts the store down cleanly (everything appended becomes
// durable).
func (s *system) closeStore() {
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if s.async != nil {
		s.async.Close(w)
	}
	s.store.Close(w)
}

// preloadBatch is the MultiPut size of the preload.
const preloadBatch = 256

// preload writes every key of the keyspace with sequence 0 through put,
// preloadBatch pairs at a time.
func preload(wl *workload, put func(kvs []shardedkv.Pair) error) error {
	kvs := make([]shardedkv.Pair, preloadBatch)
	for i := range kvs {
		kvs[i].Value = newValue(wl.vsize)
	}
	for base := uint64(0); base < wl.keys; base += preloadBatch {
		n := min(uint64(preloadBatch), wl.keys-base)
		for i := uint64(0); i < n; i++ {
			kvs[i].Key = base + i
			stamp(kvs[i].Value, base+i, 0)
		}
		if err := put(kvs[:n]); err != nil {
			return fmt.Errorf("preload at key %d: %w", base, err)
		}
	}
	return nil
}

// setupInfo is what setting the system up cost and found.
type setupInfo struct {
	setupS           float64
	recoveryS        float64 // durable only: the reopening Open call
	recoveredRecords int     // durable only: live keys after recovery
}

// setupServed brings up the served system the way a deployment would be
// brought to the state the measured traffic runs against: open the store,
// listen, dial, preload every key over the wire (bulk class, then a
// Flush), and — for a durable workload — shut down cleanly and start
// again from the log, so WAL replay, checkpoint and the CURRENT flip are
// inside set-up time. Every workload then gets a fresh server over the
// loaded store, so the server's cumulative Stats cover only warm-up and
// measured traffic.
func setupServed(wl *workload, scratch string, tr *tracer) (*system, [2]*kvclient.Client, setupInfo, error) {
	var info setupInfo
	var clients [2]*kvclient.Client
	start := time.Now()
	s := newSystem(wl, scratch, tr)
	if err := s.openStore(); err != nil {
		return nil, clients, info, fmt.Errorf("open store: %w", err)
	}
	if err := s.serve(); err != nil {
		return nil, clients, info, fmt.Errorf("serve: %w", err)
	}
	loader, err := s.dial(bulk)
	if err != nil {
		return nil, clients, info, fmt.Errorf("dial: %w", err)
	}
	err = preload(wl, func(kvs []shardedkv.Pair) error {
		_, perr := loader.MultiPut(kvserver.ClassBulk, kvs)
		return perr
	})
	if err == nil {
		err = loader.Flush(kvserver.ClassBulk)
	}
	loader.Close()
	s.srv.Close()
	if err != nil {
		s.closeStore()
		return nil, clients, info, err
	}
	if wl.durable {
		s.closeStore()
		reopen := time.Now()
		if err = s.openStore(); err != nil {
			return nil, clients, info, fmt.Errorf("reopen store: %w", err)
		}
		info.recoveryS = time.Since(reopen).Seconds()
		info.recoveredRecords = s.store.Len(core.NewWorker(core.WorkerConfig{Class: core.Big}))
		if uint64(info.recoveredRecords) != wl.keys {
			s.closeStore()
			return nil, clients, info, fmt.Errorf("recovery found %d keys, preloaded %d", info.recoveredRecords, wl.keys)
		}
	}
	if err = s.serve(); err != nil {
		s.closeStore()
		return nil, clients, info, fmt.Errorf("serve: %w", err)
	}
	for class := range clients {
		if clients[class], err = s.dial(class); err != nil {
			s.srv.Close()
			s.closeStore()
			return nil, clients, info, fmt.Errorf("dial: %w", err)
		}
	}
	info.setupS = time.Since(start).Seconds()
	return s, clients, info, nil
}
