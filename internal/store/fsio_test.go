package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplacesOrKeeps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomic(OS(), path, []byte("old content")); err != nil {
		t.Fatal(err)
	}

	// A failed rename must leave the old content untouched.
	ffs := NewFaultFS(OS())
	ffs.FailRenames(ErrInjected)
	if err := WriteFileAtomic(ffs, path, []byte("new content")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename fault not surfaced: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old content" {
		t.Fatalf("old content lost: %q, %v", got, err)
	}

	// So must a failed write.
	ffs = NewFaultFS(OS())
	ffs.FailWrites(ErrInjected)
	if err := WriteFileAtomic(ffs, path, []byte("new content")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "old content" {
		t.Fatalf("old content lost after write fault: %q", got)
	}

	// A failed data fsync must also leave the old content untouched.
	ffs = NewFaultFS(OS())
	ffs.FailSyncs(ErrInjected)
	if err := WriteFileAtomic(ffs, path, []byte("new content")); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault not surfaced: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "old content" {
		t.Fatalf("old content lost after sync fault: %q", got)
	}

	// A healthy write replaces it.
	if err := WriteFileAtomic(OS(), path, []byte("new content")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "new content" {
		t.Fatalf("new content not written: %q", got)
	}
}

// A kill at any byte offset during an atomic rewrite leaves the target
// with either the complete old or complete new content.
func TestWriteFileAtomicKillAtEveryOffset(t *testing.T) {
	newContent := bytes.Repeat([]byte("NEW!"), 50)
	for offset := int64(0); ; offset++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "data.bin")
		if err := WriteFileAtomic(OS(), path, []byte("old content")); err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(OS())
		ffs.KillAfterBytes(offset)
		err := WriteFileAtomic(ffs, path, newContent)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("offset %d: target unreadable: %v", offset, rerr)
		}
		if !bytes.Equal(got, []byte("old content")) && !bytes.Equal(got, newContent) {
			t.Fatalf("offset %d: mixed content (%d bytes)", offset, len(got))
		}
		if err == nil {
			if !bytes.Equal(got, newContent) {
				t.Fatalf("offset %d: success reported but old content on disk", offset)
			}
			break // the whole write fit in the budget; sweep complete
		}
	}
}
