package wav

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warping/internal/audio"
	"warping/internal/ts"
)

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = r.Float64()*2 - 1
	}
	var buf bytes.Buffer
	if err := Encode(&buf, samples, 8000); err != nil {
		t.Fatal(err)
	}
	got, rate, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8000 {
		t.Errorf("rate = %d", rate)
	}
	if len(got) != len(samples) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range samples {
		if math.Abs(got[i]-samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, got[i], samples[i])
		}
	}
}

// DecodeInto fills the caller's buffer when it is large enough, allocates
// when it is not, ignores what the buffer held, and agrees with Decode.
func TestDecodeIntoReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	encode := func(n int) ([]byte, []float64) {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Float64()*2 - 1
		}
		var buf bytes.Buffer
		if err := Encode(&buf, samples, 16000); err != nil {
			t.Fatal(err)
		}
		want, _, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), want
	}
	same := func(got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sample %d: %v, Decode gives %v", i, got[i], want[i])
			}
		}
	}

	big, wantBig := encode(1000)
	buf, rate, err := DecodeInto(nil, big)
	if err != nil || rate != 16000 {
		t.Fatalf("rate %d, err %v", rate, err)
	}
	same(buf, wantBig)

	// A shorter file lands in the same array, whatever the length and
	// contents handed in.
	small, wantSmall := encode(300)
	for i := range buf {
		buf[i] = 9
	}
	got, _, err := DecodeInto(buf[:7], small)
	if err != nil {
		t.Fatal(err)
	}
	same(got, wantSmall)
	if &got[0] != &buf[0] {
		t.Error("buffer with enough capacity was not reused")
	}
	if buf[len(got)] != 9 {
		t.Error("wrote past the decoded samples")
	}

	// A longer file gets a new array and leaves the old one alone.
	bigger, wantBigger := encode(cap(buf) + 1)
	got, _, err = DecodeInto(buf, bigger)
	if err != nil {
		t.Fatal(err)
	}
	same(got, wantBigger)
	if &got[0] == &buf[0] {
		t.Error("decoded past the buffer's capacity")
	}

	// Errors do not hand the buffer back as samples.
	if got, _, err := DecodeInto(buf, big[:50]); err == nil || got != nil {
		t.Errorf("truncated file: samples %v, err %v", got != nil, err)
	}
	if allocs := testing.AllocsPerRun(10, func() { buf, _, _ = DecodeInto(buf, big) }); allocs != 0 {
		t.Errorf("DecodeInto into a large enough buffer allocates %v times", allocs)
	}
}

// A header declaring no sample rate is corrupt: nothing downstream can
// frame such audio.
func TestDecodeRejectsZeroRate(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, []float64{0, 0.5}, 8000); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[24:28], 0)
	if _, _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("sample rate 0: err = %v, want ErrCorrupt", err)
	}
}

func TestEncodeClipping(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, []float64{2.5, -3.0}, 8000); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-4 || math.Abs(got[1]+1) > 1e-3 {
		t.Errorf("clipping wrong: %v", got)
	}
}

func TestEncodeInvalidRate(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("RIFF"),
		[]byte("RIFFxxxxWAVE"), // no chunks at all
		[]byte("not a wave file, just some bytes..."), //
	}
	for i, c := range cases {
		if _, _, err := Decode(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeRejectsStereoAndFloat(t *testing.T) {
	make44 := func(format, channels, bits uint16) []byte {
		var buf bytes.Buffer
		_ = Encode(&buf, []float64{0, 0.5}, 8000)
		b := buf.Bytes()
		binary.LittleEndian.PutUint16(b[20:22], format)
		binary.LittleEndian.PutUint16(b[22:24], channels)
		binary.LittleEndian.PutUint16(b[34:36], bits)
		return b
	}
	if _, _, err := Decode(make44(3, 1, 16)); err == nil {
		t.Error("float format accepted")
	}
	if _, _, err := Decode(make44(1, 2, 16)); err == nil {
		t.Error("stereo accepted")
	}
	if _, _, err := Decode(make44(1, 1, 8)); err == nil {
		t.Error("8-bit accepted")
	}
}

func TestDecodeSkipsUnknownChunks(t *testing.T) {
	// Hand-assemble: RIFF [JUNK chunk] [fmt ] [data].
	var body bytes.Buffer
	body.WriteString("WAVE")
	// JUNK chunk, odd size to exercise padding.
	body.WriteString("JUNK")
	junk := []byte{1, 2, 3}
	_ = binary.Write(&body, binary.LittleEndian, uint32(len(junk)))
	body.Write(junk)
	body.WriteByte(0) // pad
	// fmt chunk.
	body.WriteString("fmt ")
	_ = binary.Write(&body, binary.LittleEndian, uint32(16))
	_ = binary.Write(&body, binary.LittleEndian, uint16(1))    // PCM
	_ = binary.Write(&body, binary.LittleEndian, uint16(1))    // mono
	_ = binary.Write(&body, binary.LittleEndian, uint32(8000)) // rate
	_ = binary.Write(&body, binary.LittleEndian, uint32(16000))
	_ = binary.Write(&body, binary.LittleEndian, uint16(2))
	_ = binary.Write(&body, binary.LittleEndian, uint16(16))
	// data chunk with two samples.
	body.WriteString("data")
	_ = binary.Write(&body, binary.LittleEndian, uint32(4))
	_ = binary.Write(&body, binary.LittleEndian, int16(16384))
	_ = binary.Write(&body, binary.LittleEndian, int16(-16384))

	var file bytes.Buffer
	file.WriteString("RIFF")
	_ = binary.Write(&file, binary.LittleEndian, uint32(body.Len()))
	file.Write(body.Bytes())

	samples, rate, err := Decode(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8000 || len(samples) != 2 {
		t.Fatalf("rate=%d len=%d", rate, len(samples))
	}
	if samples[0] < 0.49 || samples[0] > 0.51 {
		t.Errorf("sample 0 = %v", samples[0])
	}
}

func TestDecodeTruncatedChunk(t *testing.T) {
	var buf bytes.Buffer
	_ = Encode(&buf, make([]float64, 100), 8000)
	b := buf.Bytes()
	if _, _, err := Decode(b[:50]); err == nil {
		t.Error("truncated data accepted")
	}
}

// Property: encode/decode round trip preserves samples to 16-bit accuracy
// for any signal.
func TestPropRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(500)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Tanh(r.NormFloat64()) // stays in (-1,1)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, samples, 44100); err != nil {
			return false
		}
		got, rate, err := Decode(buf.Bytes())
		if err != nil || rate != 44100 || len(got) != n {
			return false
		}
		for i := range samples {
			if math.Abs(got[i]-samples[i]) > 1.0/32000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Integration: a synthesized hum survives a WAV round trip and still pitch-
// tracks correctly.
func TestWAVPitchTrackIntegration(t *testing.T) {
	frames := ts.Constant(60, 64) // E4
	w := audio.Synthesize(frames, audio.SynthesisOptions{})
	var buf bytes.Buffer
	if err := Encode(&buf, w, audio.DefaultSampleRate); err != nil {
		t.Fatal(err)
	}
	back, rate, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pitch := audio.TrackPitch(back, rate)
	voiced := 0
	for _, p := range pitch[2 : len(pitch)-4] {
		if p > 0 {
			voiced++
			if math.Abs(p-64) > 0.5 {
				t.Fatalf("tracked %v after WAV round trip", p)
			}
		}
	}
	if voiced == 0 {
		t.Fatal("nothing voiced after round trip")
	}
}
