package store

import (
	"errors"
	"io/fs"
	"sync"
)

// ErrInjected is the error returned by every operation a FaultFS refuses.
var ErrInjected = errors.New("store: injected fault")

// FaultFS wraps an FS with fault injection for recovery tests. It can
// simulate a process kill at an exact byte offset of the cumulative write
// stream (the final write is torn: a prefix of it reaches the inner FS,
// the rest vanishes, and every later operation fails), as well as fsync,
// rename and directory-sync failures. The zero budget semantics make
// exhaustive kill-at-every-offset sweeps trivial to drive.
type FaultFS struct {
	inner FS

	mu        sync.Mutex
	killed    bool
	budget    int64 // remaining write bytes before the kill; -1 = unlimited
	written   int64
	syncErr   error
	writeErr  error
	renameErr error
	dirErr    error
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, budget: -1}
}

// KillAfterBytes arms a kill n bytes of writes from now: the write that
// crosses the budget is truncated at the boundary and everything after it
// fails with ErrInjected.
func (f *FaultFS) KillAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// FailSyncs makes File.Sync fail with err until called with nil.
func (f *FaultFS) FailSyncs(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// FailWrites makes File.Write and File.WriteAt fail with err, writing
// nothing, until called with nil.
func (f *FaultFS) FailWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
}

// FailRenames makes Rename fail with err until called with nil.
func (f *FaultFS) FailRenames(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renameErr = err
}

// FailDirSyncs makes SyncDir fail with err until called with nil.
func (f *FaultFS) FailDirSyncs(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirErr = err
}

// BytesWritten reports the cumulative bytes that reached the inner FS.
func (f *FaultFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// Killed reports whether the simulated process death has happened.
func (f *FaultFS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

func (f *FaultFS) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return ErrInjected
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.alive(); err != nil {
		return err
	}
	f.mu.Lock()
	rerr := f.renameErr
	f.mu.Unlock()
	if rerr != nil {
		return rerr
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.alive(); err != nil {
		return err
	}
	f.mu.Lock()
	derr := f.dirErr
	f.mu.Unlock()
	if derr != nil {
		return derr
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	return f.fs.write(p, f.inner.Write)
}

// WriteAt draws on the same byte budget as Write, so a kill sweep tears
// positional page writes exactly as it tears streamed ones.
func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return f.fs.write(p, func(b []byte) (int, error) { return f.inner.WriteAt(b, off) })
}

// write passes p, cut at the remaining budget, to inner. The write that
// crosses the budget is torn there and kills the filesystem.
func (f *FaultFS) write(p []byte, inner func([]byte) (int, error)) (int, error) {
	f.mu.Lock()
	if f.killed {
		f.mu.Unlock()
		return 0, ErrInjected
	}
	if err := f.writeErr; err != nil {
		f.mu.Unlock()
		return 0, err
	}
	allowed := len(p)
	torn := false
	if f.budget >= 0 && int64(allowed) > f.budget {
		allowed = int(f.budget)
		torn = true
	}
	n, err := inner(p[:allowed])
	f.written += int64(n)
	if f.budget >= 0 {
		f.budget -= int64(n)
	}
	if torn {
		f.killed = true
	}
	f.mu.Unlock()
	if err != nil {
		return n, err
	}
	if torn {
		return n, ErrInjected
	}
	return n, nil
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.alive(); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.alive(); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.fs.alive(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	serr := f.fs.syncErr
	f.fs.mu.Unlock()
	if serr != nil {
		return serr
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.alive(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.alive(); err != nil {
		return 0, err
	}
	return f.inner.Seek(offset, whence)
}

// Close always reaches the inner file so tests do not leak descriptors.
func (f *faultFile) Close() error {
	err := f.inner.Close()
	if aerr := f.fs.alive(); aerr != nil {
		return aerr
	}
	return err
}
