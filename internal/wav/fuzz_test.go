package wav

import (
	"bytes"
	"testing"
)

// FuzzDecode exercises the WAV parser with arbitrary bytes; it must only
// ever return errors, never panic, and successful parses must yield a
// positive rate and samples in a sane range. It decodes into a dirty buffer
// shorter than most inputs' audio, so both the reuse and the allocate path
// of DecodeInto are covered.
func FuzzDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := Encode(&valid, []float64{0, 0.5, -0.5, 1, -1}, 8000); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:13])
	f.Add([]byte("RIFF"))
	f.Add([]byte{})
	f.Add([]byte("RIFFxxxxWAVEfmt "))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := []float64{7, 7, 7, 7}
		samples, rate, err := DecodeInto(dst, data)
		if err != nil {
			if samples != nil {
				t.Fatal("samples returned beside an error")
			}
			return
		}
		if rate <= 0 {
			t.Fatalf("sample rate %d accepted", rate)
		}
		if len(samples) > (len(data)-44)/2 {
			t.Fatalf("%d samples from %d bytes", len(samples), len(data))
		}
		for i, v := range samples {
			if v < -1.0001 || v > 1.0001 {
				t.Fatalf("sample %d out of range: %v", i, v)
			}
		}
	})
}
