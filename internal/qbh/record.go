package qbh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"warping/internal/music"
	"warping/internal/store"
)

// The song record is the one encoding of the database — a list of songs,
// each a sequence of (Note, Duration) pairs — on disk and on the wire. A
// WAL payload is one song record; snapshot.qbh and the replication bodies
// are runs of them. Every integer is a varint of minimal length:
//
//	id        varint (zig-zag)
//	title     uvarint byte length, then the bytes
//	notes     uvarint count, then per note: uvarint pitch, uvarint duration
//
// A run is the 8-byte runMagic, then one header record and one song record
// per song, each framed by store.AppendRecord (length, CRC-32C):
//
//	kind                                  one byte: runSnapshot or runSongs
//	NormalLen, Dim, PhraseMin, PhraseMax  uvarints (zero in a runSongs run)
//	count                                 uvarint, the song records that follow
//
// Decoding refuses trailing bytes, a length longer than the bytes that
// remain (before allocating for it), a varint longer than it needs to be,
// and any melody music.Melody.Validate refuses. So every accepted record
// re-encodes to the same bytes, and every decoded song can be indexed.

// ErrBadRecord marks a song record or a run that is framed and checksummed
// correctly but does not decode: trailing bytes, an overlong length, a
// non-minimal varint, an invalid melody, or a run with more records than
// its header counts.
var ErrBadRecord = errors.New("qbh: malformed song record")

// runMagic opens a run; its last byte is the format version. The snapshot
// container older binaries wrote opens with oldSnapshotMagic instead.
var (
	runMagic         = [8]byte{'Q', 'B', 'H', 'R', 'U', 'N', 0, 1}
	oldSnapshotMagic = [8]byte{'Q', 'B', 'H', 'S', 'N', 'A', 'P', 0}
)

// Run kinds.
const (
	runSnapshot byte = 1 // snapshot.qbh: the Options and every song
	runSongs    byte = 2 // a /replica/wal or /replica/import body
)

// minSongFrame is the smallest framed song record: the frame header, a
// one-byte id, an empty title and one note of one-byte pitch and duration.
const minSongFrame = 8 + 1 + 1 + 1 + 2

// appendSongRecord appends s's song record to dst. s must be valid (every
// stored song is: Build and AddSong validate).
func appendSongRecord(dst []byte, s music.Song) []byte {
	dst = binary.AppendVarint(dst, s.ID)
	dst = binary.AppendUvarint(dst, uint64(len(s.Title)))
	dst = append(dst, s.Title...)
	dst = binary.AppendUvarint(dst, uint64(len(s.Melody)))
	for _, n := range s.Melody {
		dst = binary.AppendUvarint(dst, uint64(n.Pitch))
		dst = binary.AppendUvarint(dst, uint64(n.Duration))
	}
	return dst
}

// decodeSongRecord decodes one song record, the whole of p: the decoder
// behind WAL replay, snapshot load, the follower's pull and /replica/import.
func decodeSongRecord(p []byte) (music.Song, error) {
	r := recordReader{b: p}
	var s music.Song
	u := r.uvarint()
	s.ID = int64(u>>1) ^ -int64(u&1)
	s.Title = string(r.bytes(r.uvarint()))
	// Each note takes at least two bytes.
	if n := r.uvarint(); r.err == nil {
		if n > uint64(len(r.b)/2) {
			return music.Song{}, fmt.Errorf("%w: %d notes in %d bytes", ErrBadRecord, n, len(r.b))
		}
		s.Melody = make(music.Melody, n)
		for i := range s.Melody {
			s.Melody[i] = music.Note{Pitch: r.int(), Duration: r.int()}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(r.b))
	}
	if r.err != nil {
		return music.Song{}, r.err
	}
	if err := s.Melody.Validate(); err != nil {
		return music.Song{}, fmt.Errorf("%w: song %d: %v", ErrBadRecord, s.ID, err)
	}
	return s, nil
}

// appendRun appends a run of the given kind holding opts' fields and songs.
func appendRun(dst []byte, kind byte, opts Options, songs []music.Song) []byte {
	dst = append(dst, runMagic[:]...)
	hdr := []byte{kind}
	for _, v := range []int{opts.NormalLen, opts.Dim, opts.PhraseMin, opts.PhraseMax, len(songs)} {
		hdr = binary.AppendUvarint(hdr, uint64(v))
	}
	dst = store.AppendRecord(dst, hdr)
	var rec []byte
	for _, s := range songs {
		rec = appendSongRecord(rec[:0], s)
		dst = store.AppendRecord(dst, rec)
	}
	return dst
}

// decodeRun decodes a run of the given kind, the whole of b. Failures are
// typed: store.ErrBadMagic for foreign bytes, store.ErrVersion for an older
// format (the snapshot container older binaries wrote), store.ErrTruncated
// and store.ErrChecksum from the framing, ErrBadRecord for the rest.
func decodeRun(b []byte, kind byte) (Options, []music.Song, error) {
	var opts Options
	if len(b) < len(runMagic) {
		return opts, nil, fmt.Errorf("%w: %d bytes cannot hold a run", store.ErrTruncated, len(b))
	}
	switch magic := [8]byte(b[:8]); {
	case magic == oldSnapshotMagic:
		return opts, nil, fmt.Errorf("%w: a snapshot container written by an older binary", store.ErrVersion)
	case [7]byte(b[:7]) == [7]byte(runMagic[:7]) && b[7] != runMagic[7]:
		return opts, nil, fmt.Errorf("%w: run version %d (supported: %d)", store.ErrVersion, b[7], runMagic[7])
	case magic != runMagic:
		return opts, nil, fmt.Errorf("%w: % x", store.ErrBadMagic, b[:8])
	}
	hdr, rest, err := store.NextRecord(b[8:])
	if err != nil {
		return opts, nil, fmt.Errorf("run header: %w", err)
	}
	r := recordReader{b: hdr}
	if got := r.bytes(1); r.err == nil && got[0] != kind {
		return opts, nil, fmt.Errorf("%w: run kind %d, want %d", ErrBadRecord, got[0], kind)
	}
	opts.NormalLen, opts.Dim, opts.PhraseMin, opts.PhraseMax = r.int(), r.int(), r.int(), r.int()
	count := r.uvarint()
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes in the run header", ErrBadRecord, len(r.b))
	}
	if r.err != nil {
		return opts, nil, r.err
	}
	if count > uint64(len(rest)/minSongFrame) {
		return opts, nil, fmt.Errorf("%w: %d songs counted, %d bytes follow", store.ErrTruncated, count, len(rest))
	}
	songs := make([]music.Song, count)
	for i := range songs {
		var p []byte
		if p, rest, err = store.NextRecord(rest); err != nil {
			return opts, nil, fmt.Errorf("song %d of %d: %w", i, count, err)
		}
		if songs[i], err = decodeSongRecord(p); err != nil {
			return opts, nil, fmt.Errorf("song %d of %d: %w", i, count, err)
		}
	}
	if len(rest) > 0 {
		return opts, nil, fmt.Errorf("%w: %d bytes after the %d songs the run counts", ErrBadRecord, len(rest), count)
	}
	return opts, songs, nil
}

// EncodeSongs encodes songs as a replication body (PathWAL, PathImport):
// a run of kind runSongs.
func EncodeSongs(songs []music.Song) []byte { return appendRun(nil, runSongs, Options{}, songs) }

// DecodeSongs decodes an EncodeSongs body. It refuses the whole body if
// any song in it is malformed or invalid.
func DecodeSongs(b []byte) ([]music.Song, error) {
	_, songs, err := decodeRun(b, runSongs)
	return songs, err
}

// recordReader reads the fields of one record; the first failure sticks.
type recordReader struct {
	b   []byte
	err error
}

// uvarint reads a uvarint of minimal length.
func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.err = fmt.Errorf("%w: bad varint", ErrBadRecord)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a uvarint that must fit an int32.
func (r *recordReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt32 && r.err == nil {
		r.err = fmt.Errorf("%w: %d out of range", ErrBadRecord, v)
	}
	return int(v)
}

// bytes returns the next n bytes, refusing a length past the end.
func (r *recordReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("%w: %d bytes claimed, %d remain", ErrBadRecord, n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}
