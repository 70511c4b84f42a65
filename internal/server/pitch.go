package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// decodePitch parses a /query/pitch body, a JSON array of numbers, into
// exactly what json.Decoder.Decode into a []float64 gives when it streams
// that body from the client and, if readErr is not nil, then meets readErr.
// The one shape the endpoint takes — whitespace, '[', numbers in JSON's
// grammar between commas, ']' — is scanned directly, and whatever follows
// the array is ignored, as Decode ignores it. Each number goes through
// strconv.ParseFloat(tok, 64), the call encoding/json makes for a float64,
// so every value has the same bits. Any other body — null, strings,
// nesting, numbers outside the grammar or float64's range, truncation, a
// read error — goes to encoding/json itself, so its value and error are
// encoding/json's: a value complete before the read error decodes, anything
// else fails as it did streaming.
func decodePitch(body []byte, readErr error) ([]float64, error) {
	if readErr == nil {
		if p, ok := scanPitch(body); ok {
			return p, nil
		}
	}
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	var p []float64
	err := json.NewDecoder(r).Decode(&p)
	return p, err
}

// errReader reports err on every read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// maxPitchPrealloc is the most scanPitch allocates on the word of the
// commas it counts, before the numbers between them have parsed.
const maxPitchPrealloc = maxBodyPrealloc / 8

// scanPitch is decodePitch's fast path; ok is false for any body it does
// not take.
func scanPitch(b []byte) (p []float64, ok bool) {
	i := skipSpace(b, 0)
	end := bytes.IndexByte(b, ']')
	if i == len(b) || b[i] != '[' || end < 0 {
		return nil, false
	}
	p = make([]float64, 0, min(bytes.Count(b[i:end], []byte{','}), maxPitchPrealloc)+1)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return p, true
	}
	for {
		j := numberEnd(b, i)
		if j == i {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return nil, false
		}
		p = append(p, v)
		if i = skipSpace(b, j); i == len(b) {
			return nil, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return p, true
		default:
			return nil, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the end of the JSON number that starts at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or i when none does.
func numberEnd(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := digitsEnd(b, j)
	if k == j || b[j] == '0' && k > j+1 { // no digit, or a leading zero
		return i
	}
	j = k
	if j < len(b) && b[j] == '.' {
		k := digitsEnd(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digitsEnd(b, j)
		if k == j {
			return i
		}
		j = k
	}
	return j
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
