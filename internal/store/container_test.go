package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sampleContainer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := WriteContainer(&buf, "test/kind", []Section{
		{Name: "alpha", Data: []byte("first payload")},
		{Name: "beta", Data: bytes.Repeat([]byte{0xAB}, 300)},
		{Name: "empty", Data: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	data := sampleContainer(t)
	kind, sections, err := ReadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if kind != "test/kind" {
		t.Errorf("kind = %q", kind)
	}
	if len(sections) != 3 {
		t.Fatalf("%d sections", len(sections))
	}
	if sections[0].Name != "alpha" || string(sections[0].Data) != "first payload" {
		t.Errorf("section 0: %+v", sections[0])
	}
	if sections[1].Name != "beta" || len(sections[1].Data) != 300 {
		t.Errorf("section 1: %q, %d bytes", sections[1].Name, len(sections[1].Data))
	}
	if sections[2].Name != "empty" || len(sections[2].Data) != 0 {
		t.Errorf("section 2: %+v", sections[2])
	}
}

// Every strict prefix must be rejected as truncated (never accepted, never
// a panic), except magic-length prefixes that no longer match the magic.
func TestContainerTruncatedEveryPrefix(t *testing.T) {
	data := sampleContainer(t)
	for n := 0; n < len(data); n++ {
		_, _, err := ReadContainer(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
}

// Every single-bit flip must surface as a typed error — mostly ErrChecksum,
// ErrBadMagic in the magic, and possibly ErrTruncated when a corrupted
// length field points past the end of the input.
func TestContainerBitFlipEveryByte(t *testing.T) {
	data := sampleContainer(t)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x10
		_, _, err := ReadContainer(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestContainerForeignData(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("this is not a container at all, but it is long enough"),
		bytes.Repeat([]byte{0xFF}, 64),
	} {
		if _, _, err := ReadContainer(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("foreign data: got %v, want ErrBadMagic", err)
		}
	}
}

func TestContainerFutureVersion(t *testing.T) {
	data := sampleContainer(t)
	// Rewrite the version field and fix up the header CRC by regenerating
	// a container with a hacked version through the private writer path:
	// simplest is to patch bytes 8..12 and recompute the header CRC.
	mut := bytes.Clone(data)
	mut[8] = 99
	// header: magic(8) + version(4) + kindLen(2) + kind(9) + nsect(4)
	hdrLen := 8 + 4 + 2 + len("test/kind") + 4
	crc := crc32Of(mut[:hdrLen])
	mut[hdrLen] = byte(crc)
	mut[hdrLen+1] = byte(crc >> 8)
	mut[hdrLen+2] = byte(crc >> 16)
	mut[hdrLen+3] = byte(crc >> 24)
	if _, _, err := ReadContainer(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}
}

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

func crc32Of(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }
