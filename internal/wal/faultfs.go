package wal

import (
	"time"

	"repro/internal/fault"
)

// FaultFS is an FS that consults a fault.Registry before every
// operation. It lives in this package (rather than in internal/fault)
// because Go's nominal method-set rules mean only a type returning
// wal.File can satisfy wal.FS.
//
// Injection points (the table in ARCHITECTURE.md §10 mirrors this):
//
//	wal.open    segment create + checkpoint-tmp create
//	wal.write   every buffered write reaching a file (torn writes via short=B)
//	wal.fsync   file fsync — the group-commit failure the degraded-mode
//	            machinery exists for
//	wal.rename  checkpoint publish
//	wal.remove  history truncation after a checkpoint
//	wal.dirsync directory fsync
//
// A delay rule is a time.Sleep, which overshoots short durations: a
// bare time.Sleep(200µs) in an idle 2-CPU process returns after
// 1.09 ms at p50 and 4.1 ms at p99. A modelled 200 µs flush therefore
// costs each fsync ~300 µs on average with a millisecond-scale tail,
// and that tail, not group commit, sets the ~3.9 ms interactive p99 of
// a durable workload served through this FS.
type FaultFS struct {
	Reg  *fault.Registry
	Base FS // nil = the real filesystem
}

func (f FaultFS) base() FS {
	if f.Base == nil {
		return OSFS{}
	}
	return f.Base
}

func (f FaultFS) check(point string, n int) error {
	out := f.Reg.Eval(point, n)
	if out.Sleep > 0 {
		time.Sleep(out.Sleep)
	}
	return out.Err
}

func (f FaultFS) MkdirAll(dir string) error { return f.base().MkdirAll(dir) }

func (f FaultFS) Create(name string) (File, error) {
	if err := f.check("wal.open", 0); err != nil {
		return nil, err
	}
	file, err := f.base().Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, reg: f.Reg}, nil
}

func (f FaultFS) CreateTrunc(name string) (File, error) {
	if err := f.check("wal.open", 0); err != nil {
		return nil, err
	}
	file, err := f.base().CreateTrunc(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, reg: f.Reg}, nil
}

func (f FaultFS) Rename(oldpath, newpath string) error {
	if err := f.check("wal.rename", 0); err != nil {
		return err
	}
	return f.base().Rename(oldpath, newpath)
}

func (f FaultFS) Remove(name string) error {
	if err := f.check("wal.remove", 0); err != nil {
		return err
	}
	return f.base().Remove(name)
}

func (f FaultFS) SyncDir(dir string) error {
	if err := f.check("wal.dirsync", 0); err != nil {
		return err
	}
	return f.base().SyncDir(dir)
}

// faultFile interposes on the write/fsync paths of one open file. A
// short=B rule on wal.write lets B bytes reach the file and then
// fails — the torn write Replay must truncate at.
type faultFile struct {
	File
	reg *fault.Registry
}

func (f *faultFile) Write(p []byte) (int, error) {
	out := f.reg.Eval("wal.write", len(p))
	if out.Sleep > 0 {
		time.Sleep(out.Sleep)
	}
	if out.Err == nil {
		return f.File.Write(p)
	}
	n := 0
	if out.Short > 0 {
		short := out.Short
		if short > len(p) {
			short = len(p)
		}
		n, _ = f.File.Write(p[:short])
	}
	return n, out.Err
}

func (f *faultFile) Sync() error {
	out := f.reg.Eval("wal.fsync", 0)
	if out.Sleep > 0 {
		time.Sleep(out.Sleep)
	}
	if out.Err != nil {
		return out.Err
	}
	return f.File.Sync()
}
