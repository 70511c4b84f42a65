package qbh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"warping/internal/music"
	"warping/internal/store"
)

// songFrom builds a valid song out of arbitrary bytes: an id, a title, and
// one note per two bytes — at least one, and at most 256, whose durations
// stay within MaxMelodyDuration.
func songFrom(data []byte) music.Song {
	var id [8]byte
	copy(id[:], data)
	s := music.Song{ID: int64(binary.LittleEndian.Uint64(id[:])), Title: string(data[:len(data)/3])}
	for i := 0; i+1 < len(data) && len(s.Melody) < 256 || len(s.Melody) == 0; i += 2 {
		var p, d byte
		if i+1 < len(data) {
			p, d = data[i], data[i+1]
		}
		s.Melody = append(s.Melody, music.Note{Pitch: int(p % 128), Duration: 1 + int(d)*4%music.MaxNoteDuration})
	}
	return s
}

// FuzzSongRecord: decoding arbitrary bytes as a song record or a run never
// panics; a record that decodes re-encodes to the same bytes; decode ∘
// encode is the identity on valid songs; and a record or run claiming 2^31
// notes or songs is refused.
func FuzzSongRecord(f *testing.F) {
	songs := append(music.GenerateSongs(3, 3, 1, 40), music.Song{ID: -5, Title: "négatif", Melody: music.Melody{{Pitch: 0, Duration: music.MaxNoteDuration}}})
	for _, s := range songs {
		f.Add(appendSongRecord(nil, s))
	}
	f.Add(EncodeSongs(songs))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	// A record claiming 2^31 notes and a run claiming 2^31 songs, each in a
	// few bytes, are refused before anything is allocated for the claim.
	record := binary.AppendUvarint([]byte{2, 0}, 1<<31)
	run := append(bytes.Clone(runMagic[:]), store.AppendRecord(nil, binary.AppendUvarint([]byte{runSongs, 0, 0, 0, 0}, 1<<31))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, rerr := decodeSongRecord(record)
	_, serr := DecodeSongs(run)
	runtime.ReadMemStats(&after)
	if !errors.Is(rerr, ErrBadRecord) || !errors.Is(serr, store.ErrTruncated) {
		f.Fatalf("2^31 notes: %v, want ErrBadRecord; 2^31 songs: %v, want store.ErrTruncated", rerr, serr)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		f.Fatalf("refusing two claims of 2^31 allocated %d bytes", alloc)
	}
	f.Add(record)
	f.Add(run)
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := decodeSongRecord(data); err == nil {
			if got := appendSongRecord(nil, s); !bytes.Equal(got, data) {
				t.Fatalf("accepted record re-encodes differently:\n got % x\nwant % x", got, data)
			}
		} else if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("untyped record error: %v", err)
		}
		if batch, err := DecodeSongs(data); err == nil {
			if got := EncodeSongs(batch); !bytes.Equal(got, data) {
				t.Fatalf("accepted run re-encodes differently:\n got % x\nwant % x", got, data)
			}
		}
		s := songFrom(data)
		if err := s.Melody.Validate(); err != nil {
			t.Fatalf("songFrom built an invalid song: %v", err)
		}
		back, err := decodeSongRecord(appendSongRecord(nil, s))
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("decode(encode(s)) = %+v, %v; want %+v", back, err, s)
		}
	})
}
