package wal

import (
	"io"
	"os"
)

// FS abstracts the write-side file operations a Log performs. It is
// the injection seam: tests and the chaos harness swap in FaultFS to
// reach every err != nil branch in Append/Commit/Rotate/
// WriteCheckpoint without a real failing disk. The read side (Replay)
// deliberately stays on the real filesystem — recovery faults are
// exercised with real torn/corrupt files instead. A nil Options.FS
// means the real filesystem.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens a brand-new file (O_CREATE|O_WRONLY|O_EXCL) —
	// used for segments, which must never silently overwrite.
	Create(name string) (File, error)
	// CreateTrunc opens a file, truncating any previous content —
	// used for checkpoint temporaries, which are throwaway until
	// renamed into place.
	CreateTrunc(name string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// SyncDir fsyncs a directory so created/renamed entries survive
	// a crash.
	SyncDir(dir string) error
}

// File is the slice of *os.File the Log writes through.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem: the default of Options.FS and
// FaultFS.Base.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

func (OSFS) CreateTrunc(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
