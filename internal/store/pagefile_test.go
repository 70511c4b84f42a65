package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPageFileRoundTrip(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "x.pages")
	pf, err := CreatePageFile(fsys, path, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 20
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		pid := pf.Allocate()
		if pid != uint64(i) {
			t.Fatalf("pid %d, want %d", pid, i)
		}
		buf := make([]byte, 512)
		rng.Read(buf[PageHeaderSize:])
		want[i] = append([]byte(nil), buf[PageHeaderSize:]...)
		if err := pf.WritePage(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one page to prove in-place update works.
	buf := make([]byte, 512)
	rng.Read(buf[PageHeaderSize:])
	want[3] = append([]byte(nil), buf[PageHeaderSize:]...)
	if err := pf.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf2, err := OpenPageFile(fsys, path, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if pf2.NumPages() != n {
		t.Fatalf("NumPages = %d, want %d", pf2.NumPages(), n)
	}
	if pf2.PageSize() != 512 {
		t.Fatalf("PageSize = %d", pf2.PageSize())
	}
	got := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := pf2.ReadPage(uint64(i), got); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if string(got[PageHeaderSize:]) != string(want[i]) {
			t.Fatalf("page %d payload mismatch", i)
		}
	}
}

func TestPageFileRejectsCorruption(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "x.pages")
	pf, err := CreatePageFile(fsys, path, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	for i := range buf[PageHeaderSize:] {
		buf[PageHeaderSize+i] = byte(i)
	}
	pid := pf.Allocate()
	if err := pf.WritePage(pid, buf); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte on disk behind the PageFile's back.
	raw, err := fsys.OpenFile(path, 0x2 /* os.O_RDWR */, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(pageFileHeaderSize + PageHeaderSize + 5)
	if _, err := raw.Seek(off, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	if err := pf.ReadPage(pid, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt page read: %v, want ErrChecksum", err)
	}
	pf.Close()
}

func TestPageFileRejectsMisdirectedPage(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "x.pages")
	pf, err := CreatePageFile(fsys, path, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	p0, p1 := pf.Allocate(), pf.Allocate()
	if err := pf.WritePage(p0, buf); err != nil {
		t.Fatal(err)
	}
	if err := pf.WritePage(p1, buf); err != nil {
		t.Fatal(err)
	}
	// Forge page 1 with page 0's recorded id but a valid checksum: a
	// misdirected write. ReadPage(1) must reject it.
	forged := make([]byte, 256)
	forged[4] = 1 // kind
	binary.LittleEndian.PutUint64(forged[8:16], 0)
	binary.LittleEndian.PutUint32(forged, crc32.Checksum(forged[4:], castagnoli))
	raw, err := fsys.OpenFile(path, 0x2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Seek(pageFileHeaderSize+256, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(forged); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if err := pf.ReadPage(1, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("misdirected page read: %v, want ErrChecksum", err)
	}
	pf.Close()
}

func TestPageFileWrongKind(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "x.pages")
	pf, err := CreatePageFile(fsys, path, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	if _, err := OpenPageFile(fsys, path, 4); !errors.Is(err, ErrKind) {
		t.Fatalf("open with wrong kind: %v, want ErrKind", err)
	}
}

// TestPageFileConcurrentPositionalIO: eight goroutines allocate, write and
// read back their own pages of one file at the same time. Positional I/O
// shares no file offset, so every read returns the page its owner last
// wrote and verifies.
func TestPageFileConcurrentPositionalIO(t *testing.T) {
	pf, err := CreatePageFile(OS(), filepath.Join(t.TempDir(), "x.pages"), 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	const workers, pages, rounds = 8, 6, 20
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pids [pages]uint64
			for i := range pids {
				pids[i] = pf.Allocate()
			}
			buf, got := make([]byte, 512), make([]byte, 512)
			fill := func(round, i int) {
				for j := PageHeaderSize; j < len(buf); j++ {
					buf[j] = byte(g*31 + round*7 + i*3 + j)
				}
			}
			for round := 0; round < rounds; round++ {
				for i, pid := range pids {
					fill(round, i)
					if err := pf.WritePage(pid, buf); err != nil {
						t.Errorf("worker %d: write page %d: %v", g, pid, err)
						return
					}
				}
				for i, pid := range pids {
					if err := pf.ReadPage(pid, got); err != nil {
						t.Errorf("worker %d: read page %d: %v", g, pid, err)
						return
					}
					fill(round, i)
					if string(got[PageHeaderSize:]) != string(buf[PageHeaderSize:]) {
						t.Errorf("worker %d round %d: page %d holds another write", g, round, pid)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := pf.NumPages(); n != workers*pages {
		t.Fatalf("NumPages = %d, want %d", n, workers*pages)
	}
}

// TestFaultFSPositionalIO: WriteAt spends the same byte budget as Write and
// tears the write that crosses it at the same byte, and ReadAt, like Read,
// fails once the filesystem is killed.
func TestFaultFSPositionalIO(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(f File, p []byte, off int64) (int, error)
	}{
		{"Write", func(f File, p []byte, _ int64) (int, error) { return f.Write(p) }},
		{"WriteAt", func(f File, p []byte, off int64) (int, error) { return f.WriteAt(p, off) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x")
			ffs := NewFaultFS(OS())
			f, err := ffs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ffs.KillAfterBytes(7)
			if n, err := tc.write(f, []byte("abcd"), 0); n != 4 || err != nil {
				t.Fatalf("write within budget: %d, %v", n, err)
			}
			if n, err := tc.write(f, []byte("efghij"), 4); n != 3 || !errors.Is(err, ErrInjected) {
				t.Fatalf("write across budget: %d, %v; want 3, ErrInjected", n, err)
			}
			if got := ffs.BytesWritten(); got != 7 || !ffs.Killed() {
				t.Fatalf("BytesWritten %d, killed %v; want 7, true", got, ffs.Killed())
			}
			if n, err := tc.write(f, []byte("k"), 7); n != 0 || !errors.Is(err, ErrInjected) {
				t.Fatalf("write after kill: %d, %v", n, err)
			}
			if raw, err := os.ReadFile(path); err != nil || string(raw) != "abcdefg" {
				t.Fatalf("on disk %q, %v; want the first 7 bytes", raw, err)
			}
			if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
				t.Fatalf("ReadAt after kill: %v, want ErrInjected", err)
			}
			if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
				t.Fatalf("Read after kill: %v, want ErrInjected", err)
			}
		})
	}
}

func TestPageFileBadPageSize(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "x.pages")
	if _, err := CreatePageFile(fsys, path, 300, 1); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
	if _, err := CreatePageFile(fsys, path, 128, 1); err == nil {
		t.Fatal("tiny page size accepted")
	}
}
