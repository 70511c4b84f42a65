package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzContainerRead throws arbitrary bytes at the container parser: it
// must never panic, and every rejection must be one of the typed errors
// (or a round-trippable accept).
func FuzzContainerRead(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteContainer(&valid, "fuzz/kind", []Section{
		{Name: "a", Data: []byte("payload-a")},
		{Name: "b", Data: bytes.Repeat([]byte{7}, 100)},
	})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:11])
	f.Add([]byte("QBHSNAP\x00garbage"))
	f.Add([]byte{})
	// A 23-byte container whose checksummed header claims 2^28 sections: the
	// claim must cost nothing before the sections arrive, and their absence
	// is a truncation.
	huge := hugeSectionCount()
	if _, _, err := ReadContainer(bytes.NewReader(huge)); !errors.Is(err, ErrTruncated) {
		f.Fatalf("a header claiming 2^28 sections, and none following: %v, want ErrTruncated", err)
	}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, sections, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Accepted input must re-encode and re-parse to the same sections.
		var out bytes.Buffer
		if err := WriteContainer(&out, kind, sections); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		kind2, sections2, err := ReadContainer(bytes.NewReader(out.Bytes()))
		if err != nil || kind2 != kind || len(sections2) != len(sections) {
			t.Fatalf("round trip diverged: %v", err)
		}
	})
}

// hugeSectionCount is a valid container header of kind "x" that claims
// 2^28 sections and ends there.
func hugeSectionCount() []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), containerMagic[:]...)
	b = le.AppendUint32(b, containerVersion)
	b = le.AppendUint16(b, 1)
	b = append(b, 'x')
	b = le.AppendUint32(b, 1<<28)
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

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
