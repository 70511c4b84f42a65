package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecover writes arbitrary bytes as a WAL file: recovery must never
// panic, and whenever it succeeds the log must remain appendable with the
// new record surviving a clean reopen (torn tails truncated, not fatal).
func FuzzWALRecover(f *testing.F) {
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })

	seedPath := filepath.Join(dir, "seed.log")
	w, _, err := OpenWAL(OS(), seedPath, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = w.Append(bytes.Repeat([]byte{byte(i + 1)}, 10+i))
	}
	w.Close()
	seed, _ := os.ReadFile(seedPath)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(walMagic[:])
	f.Add([]byte{})
	f.Add([]byte("notawal!"))
	f.Add(walClaimingHugeTail(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, rec, err := OpenWAL(OS(), path, 0)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		if err := w.Append([]byte("appended-after-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		w.Close()
		w2, rec2, err := OpenWAL(OS(), path, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer w2.Close()
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(rec.Records)+1)
		}
		last := rec2.Records[len(rec2.Records)-1]
		if string(last) != "appended-after-recovery" {
			t.Fatalf("appended record corrupted: %q", last)
		}
	})
}
