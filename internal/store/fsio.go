// Package store is the crash-safe durability layer: atomic file
// replacement for snapshots, a write-ahead log of checksummed records with
// group commit and torn-tail recovery, and checksummed page files. All file I/O
// goes through the FS interface, so tests can inject faults — short
// writes, fsync failures, rename failures, and kills at arbitrary byte
// offsets — and prove the recovery invariants hold.
package store

import (
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Typed format errors, matched with errors.Is. Every reader in the package
// (WAL records, page files) and every decoder built on AppendRecord maps its
// failures onto them.
var (
	ErrBadMagic  = errors.New("store: bad magic (foreign data)")
	ErrVersion   = errors.New("store: unsupported format version")
	ErrChecksum  = errors.New("store: checksum mismatch")
	ErrTruncated = errors.New("store: truncated")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

// WriteFileAtomic writes data to path so that a crash at any point leaves
// either the old content or the new content, never a mix: temp file in the
// same directory, fsync, rename over the target, fsync the directory.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = fsys.Remove(tmp)
		return werr
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
