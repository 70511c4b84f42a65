package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func walRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%03d:%s", i, bytes.Repeat([]byte{byte(i)}, i*7%40)))
	}
	return recs
}

func openTestWAL(t *testing.T, fsys FS, path string, window time.Duration) (*WAL, Recovered) {
	t.Helper()
	w, rec, err := OpenWAL(fsys, path, window)
	if err != nil {
		t.Fatal(err)
	}
	return w, rec
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, rec := openTestWAL(t, OS(), path, 0)
	if len(rec.Records) != 0 || rec.DroppedBytes != 0 {
		t.Fatalf("fresh wal: %+v", rec)
	}
	want := walRecords(20)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Records != 20 || st.Syncs != 20 {
		t.Errorf("stats: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec2 := openTestWAL(t, OS(), path, 0)
	defer w2.Close()
	if len(rec2.Records) != len(want) || rec2.DroppedBytes != 0 {
		t.Fatalf("recovered %d records, dropped %d", len(rec2.Records), rec2.DroppedBytes)
	}
	for i := range want {
		if !bytes.Equal(rec2.Records[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// Truncating the file at every possible offset must recover a clean prefix
// of the records — no error, no panic, no partial record.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openTestWAL(t, OS(), path, 0)
	want := walRecords(12)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(full); n++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, rec := openTestWAL(t, OS(), torn, 0)
		for i, r := range rec.Records {
			if !bytes.Equal(r, want[i]) {
				t.Fatalf("cut at %d: record %d corrupted", n, i)
			}
		}
		if n == len(full) && len(rec.Records) != len(want) {
			t.Fatalf("full file lost records: %d", len(rec.Records))
		}
		// The truncated log must accept new appends and survive a reopen.
		if err := w2.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", n, err)
		}
		w2.Close()
		w3, rec3 := openTestWAL(t, OS(), torn, 0)
		if len(rec3.Records) != len(rec.Records)+1 {
			t.Fatalf("cut at %d: reopen lost appended record", n)
		}
		w3.Close()
	}
}

// A corrupt byte mid-log truncates at the first bad record; later records
// are dropped rather than trusted.
func TestWALCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openTestWAL(t, OS(), path, 0)
	want := walRecords(10)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full, _ := os.ReadFile(path)
	for _, i := range []int{walHeaderSize + 9, len(full) / 2, len(full) - 3} {
		mut := bytes.Clone(full)
		mut[i] ^= 0x40
		p := filepath.Join(dir, "mut.log")
		os.WriteFile(p, mut, 0o644)
		w2, rec := openTestWAL(t, OS(), p, 0)
		w2.Close()
		if rec.DroppedBytes == 0 {
			t.Fatalf("flip at %d: nothing dropped", i)
		}
		for j, r := range rec.Records {
			if !bytes.Equal(r, want[j]) {
				t.Fatalf("flip at %d: surviving record %d corrupted", i, j)
			}
		}
	}
}

// walClaimingHugeTail is a log of one record followed by a 12-byte tail: a
// record header whose length field claims a 60 MiB payload, then 4 bytes of
// that payload — a torn append, or a corrupt length.
func walClaimingHugeTail(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := OpenWAL(OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("the only record")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [walRecHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], 60<<20)
	return append(append(data, hdr[:]...), "torn"...)
}

// Recovery refuses a length that runs past the file end before it allocates
// the payload: the tail is dropped as torn, at no cost in memory.
func TestWALRecoverRefusesLengthPastEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, walClaimingHugeTail(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, rec := openTestWAL(t, OS(), path, 0)
	runtime.ReadMemStats(&after)
	w.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("recovery allocated %d bytes for a 12-byte tail", alloc)
	}
	if len(rec.Records) != 1 || rec.DroppedBytes != 12 {
		t.Errorf("recovered %d records and dropped %d bytes, want 1 and 12", len(rec.Records), rec.DroppedBytes)
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "foreign.log")
	os.WriteFile(p, []byte("definitely not a wal file"), 0o644)
	if _, _, err := OpenWAL(OS(), p, 0); !errors.Is(err, ErrBadMagic) {
		t.Errorf("foreign file: got %v, want ErrBadMagic", err)
	}
	// Wrong version byte.
	bad := bytes.Clone(walMagic[:])
	bad[7] = 9
	os.WriteFile(p, bad, 0o644)
	if _, _, err := OpenWAL(OS(), p, 0); !errors.Is(err, ErrVersion) {
		t.Errorf("future wal version: got %v, want ErrVersion", err)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, OS(), path, 0)
	for _, r := range walRecords(5) {
		w.Append(r)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Records != 0 || st.Bytes != walHeaderSize {
		t.Errorf("after reset: %+v", st)
	}
	if err := w.Append([]byte("after reset")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, rec := openTestWAL(t, OS(), path, 0)
	defer w2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0]) != "after reset" {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
}

// Group commit: concurrent appenders share fsyncs, every commit really
// waits for durability, and the fsync count stays below one per append.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, OS(), path, 2*time.Millisecond)
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				errs <- w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("records = %d", st.Records)
	}
	if st.Syncs > st.Records {
		t.Errorf("more fsyncs (%d) than appends (%d)", st.Syncs, st.Records)
	}
	w.Close()
	_, rec := openTestWAL(t, OS(), path, 0)
	if len(rec.Records) != writers*perWriter {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
}

// After a failed fsync the log is poisoned: the failed commit and all
// later appends report errors instead of silently pretending durability.
func TestWALStickyFsyncError(t *testing.T) {
	ffs := NewFaultFS(OS())
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openTestWAL(t, ffs, path, 0)
	defer w.Close()
	if err := w.Append([]byte("healthy")); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(errors.New("disk on fire"))
	if err := w.Append([]byte("doomed")); err == nil {
		t.Fatal("append acked despite fsync failure")
	}
	ffs.FailSyncs(nil)
	if err := w.Append([]byte("still doomed")); err == nil {
		t.Fatal("poisoned wal accepted an append")
	}
	w.mu.Lock()
	sticky := w.err
	w.mu.Unlock()
	if sticky == nil {
		t.Fatal("no sticky error")
	}
	// Reset (after a snapshot) heals the log.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("healed")); err != nil {
		t.Fatal(err)
	}
}

// Kill the filesystem at every byte offset of the write stream: reopening
// must always yield a prefix of the appended records, with every record
// whose Append was acknowledged present.
func TestWALKillAtEveryWriteOffset(t *testing.T) {
	want := walRecords(8)
	for offset := int64(0); ; offset++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		ffs := NewFaultFS(OS())
		ffs.KillAfterBytes(offset)
		acked := 0
		w, _, err := OpenWAL(ffs, path, 0)
		if err == nil {
			for _, r := range want {
				if err := w.Append(r); err != nil {
					break
				}
				acked++
			}
			_ = w.Close() // kill leaves the handle open; release the descriptor
		}
		killed := ffs.Killed()
		// Reopen with a healthy filesystem, as after a process restart.
		w2, rec := openTestWAL(t, OS(), path, 0)
		w2.Close()
		if len(rec.Records) < acked {
			t.Fatalf("offset %d: %d acked but only %d recovered", offset, acked, len(rec.Records))
		}
		for i, r := range rec.Records {
			if i >= len(want) || !bytes.Equal(r, want[i]) {
				t.Fatalf("offset %d: recovered record %d is not a clean prefix", offset, i)
			}
		}
		if !killed {
			if acked != len(want) {
				t.Fatalf("no kill but only %d acked", acked)
			}
			break // budget exceeded the full run; sweep complete
		}
	}
}
