// Package pager is the out-of-core storage engine under the index: write-once
// page files of checksummed fixed-size pages (store.PageFile) behind a
// fixed-size-page read cache (pin/unpin refcounts, clock eviction, hit/miss
// statistics). A file is written once, front to back, by its builder — the
// columnar slot arenas and the R*-tree leaf store — with one positional write
// per page outside the pool (File.AppendPage), and is read-only from then on,
// so the pool holds no dirty page and never writes. Readers address data by
// (file, page id) and touch bytes only through pinned frames, so the working
// set lives in the pool and cold pages live on disk.
//
// Page files are derived state: the durability source of truth remains the
// qbh snapshot + WAL, and a Space wipes stale spill files when it opens.
// The pager's only durability obligation is detection — a torn or
// bit-flipped page surfaces as a checksum error, never as silent garbage
// (TestTornPageDetected) — and a build killed mid-write is simply rebuilt.
package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"warping/internal/store"
)

// Page kinds, stamped into every page header of a file.
const (
	// KindColumn marks pages of a fixed-size record column.
	KindColumn uint8 = 1
	// KindRTree marks pages holding serialized R*-tree nodes.
	KindRTree uint8 = 2
)

// Config sizes a Space. Zero values take defaults.
type Config struct {
	// PageSize is the fixed page size in bytes (power of two). Default 8192.
	PageSize int
	// PoolPages is the buffer-pool capacity in pages. Default 1024. The
	// pool allocates transient overflow frames rather than fail when every
	// frame is momentarily pinned, so this is a target, not a hard cap.
	PoolPages int
	// Dir is the backing directory for spill files. Required.
	Dir string
	// FS is the filesystem; nil means the real one.
	FS store.FS
}

// DefaultPageSize holds records of up to (8192 - 16)/8 = 1022 float64s per
// page.
const DefaultPageSize = 8192

// DefaultPoolPages caches 8 MiB at the default page size.
const DefaultPoolPages = 1024

func (c *Config) fill() {
	if c.PageSize == 0 {
		c.PageSize = DefaultPageSize
	}
	if c.PoolPages == 0 {
		c.PoolPages = DefaultPoolPages
	}
	if c.PoolPages < 8 {
		c.PoolPages = 8
	}
	if c.FS == nil {
		c.FS = store.OS()
	}
}

// Enabled reports whether the config names a backing directory — the switch
// between all-in-RAM arenas and paged mode.
func (c Config) Enabled() bool { return c.Dir != "" }

// FitPageSize returns the smallest valid page size (power of two, at least
// the configured or default size) whose payload holds one record of w
// float64s — records never span pages.
func (c Config) FitPageSize(w int) int {
	want := c.PageSize
	if want == 0 {
		want = DefaultPageSize
	}
	if need := w*8 + store.PageHeaderSize; want < need {
		want = need
	}
	ps := store.MinPageSize
	for ps < want {
		ps <<= 1
	}
	return ps
}

// Space is one directory of page files sharing one buffer pool; each column
// or tree gets its own file.
type Space struct {
	fsys store.FS
	dir  string
	pool *Pool

	mu     sync.Mutex
	nextID uint32
	files  map[uint32]*File
}

// File is a page file registered with a Space's pool.
type File struct {
	pf   *store.PageFile
	id   uint32
	path string
	sp   *Space
	// table names the pool frame holding each page, or nil. Hits read it
	// without the pool mutex; the mutex guards every change.
	table atomic.Pointer[frameTable]
}

// Allocate reserves the next page id of the file without writing it. Only
// PinNew's caller needs it; a builder takes page ids from AppendPage.
func (f *File) Allocate() uint64 { return f.pf.Allocate() }

// AppendPage writes pg as the file's next page and returns its id. It is how
// pages reach disk: one positional write, outside the pool, by the file's one
// builder, before any reader pins the page, which never changes after. pg's
// header bytes are overwritten with the page header.
func (f *File) AppendPage(pg *Frame) (uint64, error) {
	pid := f.pf.Allocate()
	return pid, f.pf.WritePage(pid, pg.Bytes())
}

// NumPages returns the file's allocation high-water mark.
func (f *File) NumPages() uint64 { return f.pf.NumPages() }

// Open creates (or reuses) the spill directory, removes stale page files
// from prior runs — spill state is derived, so anything on disk from a
// previous process is garbage — and builds the buffer pool.
func Open(cfg Config) (*Space, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("pager: Config.Dir is required")
	}
	if cfg.PageSize < store.MinPageSize || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("pager: page size %d not a power of two >= %d", cfg.PageSize, store.MinPageSize)
	}
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// store.FS has no directory listing; enumerate with os and remove
	// through the FS so fault injection still observes the deletes.
	if entries, err := os.ReadDir(cfg.Dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".pages") {
				_ = cfg.FS.Remove(filepath.Join(cfg.Dir, e.Name()))
			}
		}
	}
	return &Space{
		fsys:  cfg.FS,
		dir:   cfg.Dir,
		pool:  newPool(cfg.PageSize, cfg.PoolPages),
		files: make(map[uint32]*File),
	}, nil
}

// Pool returns the shared buffer pool.
func (s *Space) Pool() *Pool { return s.pool }

// PageSize returns the fixed page size of the space.
func (s *Space) PageSize() int { return s.pool.pageSize }

// NewPage returns a zeroed page buffer outside the pool, with a frame's
// accessors, for a builder to fill and hand to File.AppendPage.
func (s *Space) NewPage() *Frame { return &Frame{words: make([]uint64, s.pool.pageSize/8)} }

// NewFile creates a fresh page file of the given kind.
func (s *Space) NewFile(kind uint8) (*File, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	path := filepath.Join(s.dir, fmt.Sprintf("%06d.pages", id))
	s.mu.Unlock()
	pf, err := store.CreatePageFile(s.fsys, path, s.pool.pageSize, kind)
	if err != nil {
		return nil, err
	}
	f := &File{pf: pf, id: id, path: path, sp: s}
	s.mu.Lock()
	s.files[id] = f
	s.mu.Unlock()
	return f, nil
}

// Remove drops every cached page of f, closes it, and deletes it from disk.
// The caller must guarantee no page of f is pinned.
func (s *Space) Remove(f *File) error {
	if err := s.pool.dropFile(f); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.files, f.id)
	s.mu.Unlock()
	err := f.pf.Close()
	if rerr := s.fsys.Remove(f.path); err == nil {
		err = rerr
	}
	return err
}

// Close closes every file. Spill contents are left on disk; the next Open
// wipes them. Pinned pages make Close fail.
func (s *Space) Close() error {
	s.mu.Lock()
	files := make([]*File, 0, len(s.files))
	for _, f := range s.files {
		files = append(files, f)
	}
	s.files = make(map[uint32]*File)
	s.mu.Unlock()
	var first error
	for _, f := range files {
		if err := s.pool.dropFile(f); err != nil && first == nil {
			first = err
		}
		if err := f.pf.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the pool counters.
func (s *Space) Stats() Stats { return s.pool.Stats() }
