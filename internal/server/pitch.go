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
// the array is ignored, as Decode ignores it. Each number is read in one
// pass (number): exactly, in one multiply or divide, where Clinger's fast
// path holds, and elsewhere by strconv.ParseFloat(tok, 64), the call
// encoding/json makes for a float64, so every value has the same bits. Any
// other body — null, strings, nesting, numbers outside the grammar or
// float64's range, truncation, a read error — goes to encoding/json itself,
// so its value and error are encoding/json's: a value complete before the
// read error decodes, anything else fails as it did streaming.
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
		v, j, ok := number(b, i)
		if !ok {
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

// pow10 holds 1e0 … 1e22, the powers of ten a float64 holds exactly:
// 10^22 = 2^22 · 5^22 and 5^22 < 2^53, so each product below is exact.
var pow10 = func() (t [23]float64) {
	t[0] = 1
	for e := 1; e < len(t); e++ {
		t[e] = t[e-1] * 10
	}
	return t
}()

// number parses the JSON number at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — in one pass and returns
// its value and end; ok is false when none starts there or when
// strconv.ParseFloat, the call encoding/json makes for a float64, fails.
//
// The walk reads the number as mant · 10^exp. When at most 19 digits were
// read (so mant did not wrap), mant ≤ 2^53 and |exp| ≤ 22, float64(mant) and
// 10^|exp| are exact float64s, and one IEEE multiply or divide rounds the
// exact value correctly: the bits strconv.ParseFloat gives (Clinger's fast
// path; strconv's own takes mant < 2^52). Any other number goes to
// strconv.ParseFloat on the token already delimited.
func number(b []byte, i int) (v float64, j int, ok bool) {
	j = i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	d, mant := digits(b, j, 0)
	if d == j || b[j] == '0' && d > j+1 { // no digit, or a leading zero
		return 0, i, false
	}
	nd, exp := d-j, 0 // digits read, power of ten
	if j = d; j < len(b) && b[j] == '.' {
		if d, mant = digits(b, j+1, mant); d == j+1 {
			return 0, i, false
		}
		nd += d - j - 1
		exp, j = j+1-d, d // one power of ten down per fraction digit
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		sign := 1
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			if b[j] == '-' {
				sign = -1
			}
			j++
		}
		d, e := digits(b, j, 0)
		if d == j {
			return 0, i, false
		}
		if d-j > 18 { // e may not fit an int: leave the number to the fallback
			e = 1 << 32
		}
		exp, j = exp+sign*int(e), d
	}
	if nd <= 19 && mant <= 1<<53 && -22 <= exp && exp <= 22 {
		v = float64(mant)
		if exp < 0 {
			v /= pow10[-exp]
		} else {
			v *= pow10[exp]
		}
		if neg {
			v = -v
		}
		return v, j, true
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	return v, j, err == nil
}

// digits appends the decimal digits at b[j:] to mant and returns their end
// and the new mant, which wraps past 19 digits.
func digits(b []byte, j int, mant uint64) (int, uint64) {
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		mant = mant*10 + uint64(b[j]-'0')
	}
	return j, mant
}
