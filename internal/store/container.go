package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Snapshot container format, version 1. All integers are little-endian.
//
//	magic      [8]byte  "QBHSNAP\x00"
//	version    uint32   currently 1
//	kindLen    uint16   length of the kind string
//	kind       []byte   application payload kind, e.g. "qbh/system"
//	nsections  uint32
//	headerCRC  uint32   CRC-32C of every byte above
//	section, repeated nsections times:
//	  nameLen    uint16
//	  name       []byte
//	  payloadLen uint64
//	  payload    []byte
//	  crc        uint32 CRC-32C of name followed by payload
//
// Every failure mode maps to a typed error: a short read anywhere is
// ErrTruncated, a foreign first 8 bytes is ErrBadMagic, a bit flip is
// ErrChecksum, a future version is ErrVersion, and reading a valid
// container of the wrong kind is ErrKind.

// Typed container errors, matched with errors.Is.
var (
	ErrBadMagic  = errors.New("store: bad magic (not a snapshot container)")
	ErrVersion   = errors.New("store: unsupported container version")
	ErrKind      = errors.New("store: wrong container kind")
	ErrChecksum  = errors.New("store: checksum mismatch")
	ErrTruncated = errors.New("store: truncated container")
)

var containerMagic = [8]byte{'Q', 'B', 'H', 'S', 'N', 'A', 'P', 0}

const containerVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named, independently checksummed payload of a container.
type Section struct {
	Name string
	Data []byte
}

// WriteContainer writes sections as a version-1 container of the given kind.
func WriteContainer(w io.Writer, kind string, sections []Section) error {
	if len(kind) > math.MaxUint16 {
		return fmt.Errorf("store: kind too long (%d bytes)", len(kind))
	}
	var hdr bytes.Buffer
	hdr.Write(containerMagic[:])
	le := binary.LittleEndian
	var b8 [8]byte
	le.PutUint32(b8[:4], containerVersion)
	hdr.Write(b8[:4])
	le.PutUint16(b8[:2], uint16(len(kind)))
	hdr.Write(b8[:2])
	hdr.WriteString(kind)
	le.PutUint32(b8[:4], uint32(len(sections)))
	hdr.Write(b8[:4])
	le.PutUint32(b8[:4], crc32.Checksum(hdr.Bytes(), castagnoli))
	hdr.Write(b8[:4])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s.Name) > math.MaxUint16 {
			return fmt.Errorf("store: section name too long (%d bytes)", len(s.Name))
		}
		var sh bytes.Buffer
		le.PutUint16(b8[:2], uint16(len(s.Name)))
		sh.Write(b8[:2])
		sh.WriteString(s.Name)
		le.PutUint64(b8[:8], uint64(len(s.Data)))
		sh.Write(b8[:8])
		if _, err := w.Write(sh.Bytes()); err != nil {
			return err
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		crc := crc32.Checksum([]byte(s.Name), castagnoli)
		crc = crc32.Update(crc, castagnoli, s.Data)
		le.PutUint32(b8[:4], crc)
		if _, err := w.Write(b8[:4]); err != nil {
			return err
		}
	}
	return nil
}

// ReadContainer parses a container, returning its kind and sections. All
// parse failures return one of the typed errors (wrapped with context).
func ReadContainer(r io.Reader) (kind string, sections []Section, err error) {
	var magic [8]byte
	if err := readFull(r, magic[:], "magic"); err != nil {
		return "", nil, err
	}
	if magic != containerMagic {
		return "", nil, fmt.Errorf("%w: % x", ErrBadMagic, magic[:])
	}
	// The rest of the header is CRC-protected; accumulate it for the check.
	sum := crc32.Update(0, castagnoli, magic[:])
	le := binary.LittleEndian
	var b8 [8]byte
	if err := readFull(r, b8[:4], "version"); err != nil {
		return "", nil, err
	}
	sum = crc32.Update(sum, castagnoli, b8[:4])
	version := le.Uint32(b8[:4])
	if err := readFull(r, b8[:2], "kind length"); err != nil {
		return "", nil, err
	}
	sum = crc32.Update(sum, castagnoli, b8[:2])
	kindBytes := make([]byte, le.Uint16(b8[:2]))
	if err := readFull(r, kindBytes, "kind"); err != nil {
		return "", nil, err
	}
	sum = crc32.Update(sum, castagnoli, kindBytes)
	if err := readFull(r, b8[:4], "section count"); err != nil {
		return "", nil, err
	}
	sum = crc32.Update(sum, castagnoli, b8[:4])
	nsect := le.Uint32(b8[:4])
	if err := readFull(r, b8[:4], "header checksum"); err != nil {
		return "", nil, err
	}
	if le.Uint32(b8[:4]) != sum {
		return "", nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	// The version check runs after the CRC so a bit-flipped version byte
	// reads as corruption, not as a future format.
	if version != containerVersion {
		return "", nil, fmt.Errorf("%w: %d (supported: %d)", ErrVersion, version, containerVersion)
	}
	kind = string(kindBytes)
	// No capacity from nsect: the header CRC is the sender's own, not a
	// bound, so a few bytes may claim billions of sections. Like the
	// payloads below, the list grows only as sections actually arrive.
	for i := uint32(0); i < nsect; i++ {
		var s Section
		if err := readFull(r, b8[:2], "section name length"); err != nil {
			return "", nil, err
		}
		name := make([]byte, le.Uint16(b8[:2]))
		if err := readFull(r, name, "section name"); err != nil {
			return "", nil, err
		}
		s.Name = string(name)
		if err := readFull(r, b8[:8], "section length"); err != nil {
			return "", nil, err
		}
		payloadLen := le.Uint64(b8[:8])
		if payloadLen > math.MaxInt64 {
			return "", nil, fmt.Errorf("%w: section %q claims %d bytes", ErrTruncated, s.Name, payloadLen)
		}
		// CopyN grows the buffer only as bytes actually arrive, so a
		// corrupt length cannot force a huge allocation.
		var payload bytes.Buffer
		if _, err := io.CopyN(&payload, r, int64(payloadLen)); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return "", nil, fmt.Errorf("%w: section %q payload", ErrTruncated, s.Name)
			}
			return "", nil, err
		}
		s.Data = payload.Bytes()
		if err := readFull(r, b8[:4], "section checksum"); err != nil {
			return "", nil, err
		}
		crc := crc32.Checksum(name, castagnoli)
		crc = crc32.Update(crc, castagnoli, s.Data)
		if le.Uint32(b8[:4]) != crc {
			return "", nil, fmt.Errorf("%w: section %q", ErrChecksum, s.Name)
		}
		sections = append(sections, s)
	}
	return kind, sections, nil
}

// readFull reads exactly len(p) bytes, mapping EOF to ErrTruncated.
func readFull(r io.Reader, p []byte, what string) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		return err
	}
	return nil
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
