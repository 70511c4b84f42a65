// Package store is the crash-safe durability layer: a versioned,
// checksummed snapshot container written with atomic replacement, and a
// write-ahead log with group commit and torn-tail recovery. All file I/O
// goes through the FS interface, so tests can inject faults — short
// writes, fsync failures, rename failures, and kills at arbitrary byte
// offsets — and prove the recovery invariants hold.
package store

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File operations the store performs. Logs and
// snapshots stream through Read and Write; page files are reached only by
// offset, through ReadAt and WriteAt.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// FS abstracts the handful of filesystem operations the store uses.
// OS() is the real filesystem; FaultFS wraps any FS with fault injection.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making renames and creates in it durable.
	SyncDir(dir string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
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
