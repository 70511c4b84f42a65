// Package wav reads and writes mono 16-bit PCM RIFF/WAVE files, the
// interchange format for the query-by-humming front end: a recorded hum can
// be loaded from disk, pitch-tracked and used as a query, and simulated
// performances can be exported for listening.
//
// Only the subset of the format the pipeline needs is supported: PCM
// (format tag 1), one channel, 16-bit samples. Files with extra chunks
// (LIST, fact, ...) are accepted; unknown chunks are skipped.
package wav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Errors returned by the decoder.
var (
	ErrNotWAV      = errors.New("wav: not a RIFF/WAVE file")
	ErrUnsupported = errors.New("wav: unsupported encoding")
	ErrCorrupt     = errors.New("wav: corrupt file")
)

// Encode writes samples in [-1, 1] as a mono 16-bit PCM WAV file. Samples
// outside [-1, 1] are clipped.
func Encode(w io.Writer, samples []float64, sampleRate int) error {
	if sampleRate <= 0 {
		return fmt.Errorf("wav: invalid sample rate %d", sampleRate)
	}
	dataLen := len(samples) * 2
	var header [44]byte
	copy(header[0:4], "RIFF")
	binary.LittleEndian.PutUint32(header[4:8], uint32(36+dataLen))
	copy(header[8:12], "WAVE")
	copy(header[12:16], "fmt ")
	binary.LittleEndian.PutUint32(header[16:20], 16)                   // fmt chunk size
	binary.LittleEndian.PutUint16(header[20:22], 1)                    // PCM
	binary.LittleEndian.PutUint16(header[22:24], 1)                    // mono
	binary.LittleEndian.PutUint32(header[24:28], uint32(sampleRate))   // sample rate
	binary.LittleEndian.PutUint32(header[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(header[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(header[34:36], 16)                   // bits per sample
	copy(header[36:40], "data")
	binary.LittleEndian.PutUint32(header[40:44], uint32(dataLen))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, dataLen)
	for _, s := range samples {
		if s > 1 {
			s = 1
		}
		if s < -1 {
			s = -1
		}
		v := int16(math.Round(s * 32767))
		buf = append(buf, byte(v), byte(uint16(v)>>8))
	}
	_, err := w.Write(buf)
	return err
}

// Decode reads a mono 16-bit PCM WAV file, returning samples scaled to
// [-1, 1] and the sample rate (always positive).
func Decode(data []byte) (samples []float64, sampleRate int, err error) {
	return DecodeInto(nil, data)
}

// DecodeInto is Decode writing the samples into dst's backing array when
// its capacity suffices (dst's contents and length are ignored), so a
// caller decoding many files can reuse one buffer. The returned slice does
// not alias data.
func DecodeInto(dst []float64, data []byte) (samples []float64, sampleRate int, err error) {
	if len(data) < 12 || string(data[0:4]) != "RIFF" || string(data[8:12]) != "WAVE" {
		return nil, 0, ErrNotWAV
	}
	pos := 12
	var haveFmt bool
	var channels, bits int
	for pos+8 <= len(data) {
		id := string(data[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(data[pos+4 : pos+8]))
		pos += 8
		if size < 0 || pos+size > len(data) {
			return nil, 0, ErrCorrupt
		}
		chunk := data[pos : pos+size]
		switch id {
		case "fmt ":
			if size < 16 {
				return nil, 0, ErrCorrupt
			}
			format := int(binary.LittleEndian.Uint16(chunk[0:2]))
			channels = int(binary.LittleEndian.Uint16(chunk[2:4]))
			sampleRate = int(binary.LittleEndian.Uint32(chunk[4:8]))
			bits = int(binary.LittleEndian.Uint16(chunk[14:16]))
			if format != 1 {
				return nil, 0, fmt.Errorf("%w: format tag %d", ErrUnsupported, format)
			}
			if channels != 1 {
				return nil, 0, fmt.Errorf("%w: %d channels", ErrUnsupported, channels)
			}
			if bits != 16 {
				return nil, 0, fmt.Errorf("%w: %d-bit samples", ErrUnsupported, bits)
			}
			if sampleRate <= 0 { // negative where int is 32 bits
				return nil, 0, fmt.Errorf("%w: sample rate %d", ErrCorrupt, sampleRate)
			}
			haveFmt = true
		case "data":
			if !haveFmt {
				return nil, 0, fmt.Errorf("%w: data chunk before fmt", ErrCorrupt)
			}
			if size%2 != 0 {
				return nil, 0, ErrCorrupt
			}
			if n := size / 2; n <= cap(dst) {
				samples = dst[:n]
			} else {
				samples = make([]float64, n)
			}
			for i := range samples {
				v := int16(binary.LittleEndian.Uint16(chunk[2*i : 2*i+2]))
				samples[i] = float64(v) / 32767
			}
			return samples, sampleRate, nil
		default:
			// Skip unknown chunks (LIST, fact, ...).
		}
		pos += size
		if size%2 == 1 {
			pos++ // chunks are word-aligned
		}
	}
	return nil, 0, fmt.Errorf("%w: no data chunk", ErrCorrupt)
}
