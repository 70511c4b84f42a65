package audio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"warping/internal/ts"
)

func TestMIDIFreqConversions(t *testing.T) {
	if f := MIDIToFreq(69); math.Abs(f-440) > 1e-9 {
		t.Errorf("A4 = %v Hz", f)
	}
	if f := MIDIToFreq(60); math.Abs(f-261.6256) > 0.001 {
		t.Errorf("C4 = %v Hz", f)
	}
	if p := FreqToMIDI(880); math.Abs(p-81) > 1e-9 {
		t.Errorf("880 Hz = MIDI %v", p)
	}
	if FreqToMIDI(0) != 0 || FreqToMIDI(-5) != 0 {
		t.Error("non-positive freq should map to 0")
	}
	// Round trip.
	for p := 40.0; p <= 84; p += 1.7 {
		if got := FreqToMIDI(MIDIToFreq(p)); math.Abs(got-p) > 1e-9 {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
}

func TestSynthesizeLengthAndRange(t *testing.T) {
	frames := ts.Constant(50, 60) // 500 ms of C4
	w := Synthesize(frames, SynthesisOptions{})
	if len(w) != 50*DefaultSampleRate*FrameMs/1000 {
		t.Fatalf("len = %d", len(w))
	}
	for i, v := range w {
		if v < -1 || v > 1 {
			t.Fatalf("sample %d = %v out of range", i, v)
		}
	}
}

func TestSynthesizeSilence(t *testing.T) {
	frames := ts.Constant(10, 0)
	w := Synthesize(frames, SynthesisOptions{})
	for _, v := range w {
		if v != 0 {
			t.Fatal("silence frames should render as zero without noise")
		}
	}
}

func TestSynthesizeNoiseNeedsRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Synthesize(ts.Constant(2, 60), SynthesisOptions{NoiseLevel: 0.1})
}

func TestTrackPitchConstantTone(t *testing.T) {
	for _, pitch := range []float64{48, 55, 60, 67, 72} {
		frames := ts.Constant(60, pitch)
		w := Synthesize(frames, SynthesisOptions{})
		got := TrackPitch(w, DefaultSampleRate)
		if len(got) == 0 {
			t.Fatal("no frames")
		}
		// Ignore edge frames (window spills past the end).
		voiced := 0
		for _, v := range got[2 : len(got)-4] {
			if v == 0 {
				continue
			}
			voiced++
			if math.Abs(v-pitch) > 0.5 {
				t.Fatalf("pitch %v: tracked %v", pitch, v)
			}
		}
		if voiced < len(got)/2 {
			t.Fatalf("pitch %v: only %d voiced frames", pitch, voiced)
		}
	}
}

func TestTrackPitchSilence(t *testing.T) {
	w := make([]float64, DefaultSampleRate) // 1 s of silence
	got := TrackPitch(w, DefaultSampleRate)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("frame %d of silence tracked as %v", i, v)
		}
	}
}

func TestTrackPitchMelodySteps(t *testing.T) {
	// Three held notes; the tracker must follow the steps.
	var frames ts.Series
	for _, p := range []float64{60, 64, 67} {
		frames = append(frames, ts.Constant(40, p)...)
	}
	w := Synthesize(frames, SynthesisOptions{})
	got := TrackPitch(w, DefaultSampleRate)
	// Check mid-note frames (avoid transition frames).
	checks := []struct {
		frame int
		want  float64
	}{{20, 60}, {60, 64}, {100, 67}}
	for _, c := range checks {
		if c.frame >= len(got) {
			t.Fatalf("only %d frames", len(got))
		}
		if math.Abs(got[c.frame]-c.want) > 0.5 {
			t.Errorf("frame %d: got %v, want %v", c.frame, got[c.frame], c.want)
		}
	}
}

func TestTrackPitchWithNoiseAndVibrato(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	frames := ts.Constant(80, 62)
	w := Synthesize(frames, SynthesisOptions{
		NoiseLevel:   0.05,
		VibratoCents: 30,
		VibratoHz:    5,
		Rand:         r,
	})
	got := TrackPitch(w, DefaultSampleRate)
	var sum float64
	var count int
	for _, v := range got[2 : len(got)-4] {
		if v > 0 {
			sum += v
			count++
		}
	}
	if count == 0 {
		t.Fatal("nothing voiced")
	}
	if mean := sum / float64(count); math.Abs(mean-62) > 0.7 {
		t.Errorf("mean tracked pitch %v, want ~62", mean)
	}
}

func TestTrackPitchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TrackPitch(make([]float64, 100), 0)
}

func TestFrameEnergies(t *testing.T) {
	// Loud then silent: energies must reflect the split.
	frames := append(ts.Constant(20, 60), ts.Constant(20, 0)...)
	w := Synthesize(frames, SynthesisOptions{})
	e := FrameEnergies(w, DefaultSampleRate)
	if len(e) != 40 {
		t.Fatalf("frames = %d", len(e))
	}
	if e[10] <= e[30]*10 {
		t.Errorf("voiced energy %v not well above silent %v", e[10], e[30])
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad rate")
		}
	}()
	FrameEnergies(w, 0)
}

// referenceTrackPitch is the tracker as it stood before the lag-blocked
// kernel: every lag of every frame from one accumulator, a
// fresh acf slice per frame. TrackPitch must reproduce it bit for bit.
func referenceTrackPitch(samples []float64, sampleRate int) ts.Series {
	hop := sampleRate * FrameMs / 1000
	window := sampleRate * 32 / 1000
	minLag := sampleRate / maxPitchHz
	maxLag := sampleRate / minPitchHz
	if minLag < 2 {
		minLag = 2
	}
	numFrames := len(samples) / hop
	out := make(ts.Series, 0, numFrames)
	for f := 0; f < numFrames; f++ {
		start := f * hop
		end := start + window
		if end > len(samples) {
			end = len(samples)
		}
		frame := samples[start:end]
		if len(frame) < minLag*2 {
			out = append(out, 0)
			continue
		}
		out = append(out, referenceEstimateFrame(frame, sampleRate, minLag, maxLag))
	}
	return out
}

func referenceEstimateFrame(frame []float64, sampleRate, minLag, maxLag int) float64 {
	n := len(frame)
	var energy float64
	for _, v := range frame {
		energy += v * v
	}
	if energy/float64(n) < 1e-4 { // silence gate
		return 0
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	// Normalized autocorrelation r(lag) / r(0).
	r0 := energy
	bestLag := 0
	bestVal := 0.0
	acf := make([]float64, maxLag+1)
	for lag := minLag; lag <= maxLag; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += frame[i] * frame[i+lag]
		}
		// Length-normalize so long lags are not penalized.
		norm := s / float64(n-lag) * float64(n)
		acf[lag] = norm / r0
	}
	// Pick the first peak above a voicing threshold; prefer earlier lags
	// (higher frequencies) to avoid octave-down errors.
	const voicing = 0.5
	for lag := minLag + 1; lag < maxLag; lag++ {
		v := acf[lag]
		if v > voicing && v >= acf[lag-1] && v >= acf[lag+1] {
			bestLag = lag
			bestVal = v
			break
		}
	}
	if bestLag == 0 {
		// Fall back to the global maximum.
		for lag := minLag; lag <= maxLag; lag++ {
			if acf[lag] > bestVal {
				bestVal = acf[lag]
				bestLag = lag
			}
		}
		if bestVal < voicing {
			return 0
		}
	}
	// Parabolic interpolation around the peak for sub-sample precision.
	lag := float64(bestLag)
	if bestLag > minLag && bestLag < maxLag {
		y0, y1, y2 := acf[bestLag-1], acf[bestLag], acf[bestLag+1]
		den := y0 - 2*y1 + y2
		if den != 0 {
			delta := 0.5 * (y0 - y2) / den
			if delta > -1 && delta < 1 {
				lag += delta
			}
		}
	}
	return FreqToMIDI(float64(sampleRate) / lag)
}

// singer is the part of hum.Singer that shapes the waveform (hum imports
// this package, so its renderer cannot be used here).
type singer struct {
	pitchErr, breathProb, noise, vibratoCents float64
	glide                                     int
}

var (
	goodSinger = singer{pitchErr: 0.15, breathProb: 0.05, noise: 0.02, vibratoCents: 10, glide: 2}
	poorSinger = singer{pitchErr: 1.1, breathProb: 0.15, noise: 0.06, vibratoCents: 25, glide: 5}
)

// render hums about the given number of seconds of a random melody the
// way hum.Singer.RenderAudio does: mistuned held notes joined by glides,
// breaths between some of them, vibrato and breath noise on top.
func (sg singer) render(r *rand.Rand, seconds float64, sampleRate int) []float64 {
	frames := int(seconds * 1000 / FrameMs)
	contour := make(ts.Series, 0, frames+60)
	shift := r.NormFloat64() * 2
	prev := 0.0
	for len(contour) < frames {
		target := float64(52+r.Intn(24)) + shift + r.NormFloat64()*sg.pitchErr
		hold := 12 + r.Intn(40)
		for f := 0; f < hold; f++ {
			p := target
			if prev != 0 && f < sg.glide {
				p = prev + (target-prev)*float64(f+1)/float64(sg.glide+1)
			}
			contour = append(contour, p)
		}
		prev = target
		if r.Float64() < sg.breathProb {
			contour = append(contour, ts.Constant(5+r.Intn(15), 0)...)
			prev = 0
		}
	}
	return Synthesize(contour[:frames], SynthesisOptions{
		SampleRate:   sampleRate,
		NoiseLevel:   sg.noise,
		VibratoCents: sg.vibratoCents,
		VibratoHz:    5.5,
		Rand:         r,
	})
}

func whiteNoise(r *rand.Rand, n int, amp float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = r.NormFloat64() * amp
	}
	return w
}

func noisySine(r *rand.Rand, n, sampleRate int, hz, noise float64) []float64 {
	w := whiteNoise(r, n, noise)
	for i := range w {
		w[i] += 0.5 * math.Sin(2*math.Pi*hz*float64(i)/float64(sampleRate))
	}
	return w
}

// detectedKernel is what CPUID chose at start-up, before any test assigns
// kernel.
var detectedKernel = kernel

// testKernels lists every implementation and whether this machine and
// build can run it.
var testKernels = []struct {
	lagKernel
	runs bool
}{{kernelPortable, true}, {kernelAVX2, cpuHasAVX2()}, {kernelAVX512, cpuHasAVX512()}}

// kernelsLogged holds each running test that has already logged which
// kernels eachKernel runs, so that a test says it once.
var kernelsLogged sync.Map

// eachKernel calls f with kernel set to each implementation this machine
// can run: the portable path always, the AVX2 and AVX-512 kernels where
// CPUID says yes. Its first call in a test logs each kernel it ran and each
// it skipped, which `go test -v` prints.
func eachKernel(tb testing.TB, f func(kernel string)) {
	tb.Helper()
	_, logged := kernelsLogged.LoadOrStore(tb, true)
	if !logged {
		tb.Cleanup(func() { kernelsLogged.Delete(tb) })
	}
	defer func() { kernel = detectedKernel }()
	for _, k := range testKernels {
		if !k.runs {
			if !logged {
				tb.Logf("pitch kernel %s skipped: this CPU, its operating system or this build lacks it", k.name)
			}
			continue
		}
		kernel = k.lagKernel
		f(Kernel())
		if !logged {
			tb.Logf("pitch kernel %s ran", k.name)
		}
	}
}

// requireSameAsReference fails unless TrackPitch, on every implementation
// this machine can run, and the reference agree on every bit of every frame.
func requireSameAsReference(t *testing.T, samples []float64, sampleRate int) (voiced int) {
	t.Helper()
	want := referenceTrackPitch(samples, sampleRate)
	eachKernel(t, func(kernel string) {
		t.Helper()
		got := TrackPitch(samples, sampleRate)
		if len(got) != len(want) {
			t.Fatalf("%s, rate %d, %d samples: %d frames, reference has %d", kernel, sampleRate, len(samples), len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s, rate %d, %d samples, frame %d: got %v (%#x), reference %v (%#x)",
					kernel, sampleRate, len(samples), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
	for _, v := range want {
		if v != 0 {
			voiced++
		}
	}
	return voiced
}

// trackerRates: at 16 kHz a frame has 8 lag blocks of 32 lanes, at 48 kHz
// 24, and at 44.1 and 48 kHz four frames share a sample (a frame's
// padding-free part is longer than three hops).
var trackerRates = []int{4000, 8000, 16000, 44100, 48000}

func TestTrackPitchMatchesReference(t *testing.T) {
	for _, rate := range trackerRates {
		t.Run(fmt.Sprint(rate), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(rate)))
			hums, secs := 6, 6.0
			if rate > 16000 || testing.Short() {
				hums, secs = 2, 2.0 // the reference is quadratic in the rate
			}
			hop := rate * FrameMs / 1000
			voiced := 0
			for i := 0; i < hums; i++ {
				voiced += requireSameAsReference(t, goodSinger.render(r, secs, rate), rate)
				voiced += requireSameAsReference(t, poorSinger.render(r, secs, rate), rate)
			}
			if voiced == 0 {
				t.Fatal("no voiced frame: the first-peak path was never compared")
			}
			// Unvoiced and barely voiced input takes the global-maximum
			// fallback, where every lag is read back.
			requireSameAsReference(t, whiteNoise(r, rate/2, 0.3), rate)
			for _, noise := range []float64{0.05, 0.3, 0.6, 1.0} {
				requireSameAsReference(t, noisySine(r, rate/2, rate, 220, noise), rate)
			}
			// Below, at and above the pitch range: peaks at the edges of
			// the lag search.
			for _, hz := range []float64{40, 60, 61, 100, 440, 799, 800, 1200} {
				requireSameAsReference(t, noisySine(r, rate/4, rate, hz, 0.01), rate)
			}
			requireSameAsReference(t, make([]float64, rate/2), rate) // all silence
			requireSameAsReference(t, nil, rate)
			// Shorter than one window, and every trailing partial frame.
			tone := noisySine(r, 12*hop, rate, 330, 0.02)
			window := rate * 32 / 1000
			for _, n := range []int{1, hop - 1, hop, hop + 1, window - 1, window, window + 1, 2 * window} {
				requireSameAsReference(t, tone[:n], rate)
			}
			for n := len(tone) - hop; n <= len(tone); n += 1 + hop/16 {
				requireSameAsReference(t, tone[:n], rate)
			}
			// A loud frame following a quiet one reuses the scratch buffer.
			mixed := append(noisySine(r, 8*hop, rate, 500, 0.02), whiteNoise(r, 8*hop, 0.4)...)
			mixed = append(mixed, noisySine(r, 8*hop, rate, 90, 0.02)...)
			requireSameAsReference(t, mixed, rate)
			// Frame counts either side of a chunk's, the last frames
			// short, by a whole hop's worth of samples and by one.
			long := noisySine(r, (2*acfChunk+2)*hop, rate, 330, 0.02)
			for _, frames := range []int{acfChunk - 1, acfChunk, acfChunk + 1, 2*acfChunk + 1} {
				requireSameAsReference(t, long[:frames*hop], rate)
				requireSameAsReference(t, long[:frames*hop+hop-1], rate)
			}
			requireGatedFrameKeepsNeighbours(t, r, rate)
		})
	}
	// The lowest rates the tracker accepts, where the lag range is a
	// handful of lags or empty.
	r := rand.New(rand.NewSource(7))
	for _, rate := range []int{MinSampleRate, 119, 120, 180, 250, 799, 800, 1000, 1601} {
		requireSameAsReference(t, noisySine(r, rate, rate, float64(rate)/9, 0.05), rate)
		requireSameAsReference(t, whiteNoise(r, rate, 0.5), rate)
	}
}

// requireGatedFrameKeepsNeighbours silences one frame's window in the
// middle of a chunk, and then puts NaN in one sample there instead. The
// silent frame and every frame holding the NaN are gated and join no pass;
// every frame the change does not touch, in the same chunk and the next,
// keeps the pitch it has in the unchanged hum, on every implementation.
func requireGatedFrameKeepsNeighbours(t *testing.T, r *rand.Rand, rate int) {
	t.Helper()
	hop, window := rate*FrameMs/1000, rate*32/1000
	clean := noisySine(r, (acfChunk+8)*hop, rate, 250, 0.02)
	const f = acfChunk / 2
	for _, change := range []struct {
		name   string
		lo, hi int // the samples changed
	}{{"silent frame", f * hop, f*hop + window}, {"NaN sample", f*hop + hop/2, f*hop + hop/2 + 1}} {
		w := append([]float64(nil), clean...)
		for i := change.lo; i < change.hi; i++ {
			w[i] = 0
			if change.name == "NaN sample" {
				w[i] = math.NaN()
			}
		}
		requireSameAsReference(t, w, rate)
		eachKernel(t, func(kernel string) {
			want, got := TrackPitch(clean, rate), TrackPitch(w, rate)
			kept := 0
			for i := range got {
				start, end := i*hop, min(i*hop+window, len(w))
				switch {
				case end <= change.lo || start >= change.hi:
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, rate %d, %s at frame %d: frame %d moved from %v to %v", kernel, rate, change.name, f, i, want[i], got[i])
					}
					if got[i] != 0 {
						kept++
					}
				case start >= change.lo && end <= change.hi || change.name == "NaN sample":
					if got[i] != 0 {
						t.Fatalf("%s, rate %d: frame %d holds the %s and tracked %v", kernel, rate, i, change.name, got[i])
					}
				}
			}
			if kept < acfChunk {
				t.Fatalf("%s, rate %d, %s: only %d untouched frames voiced", kernel, rate, change.name, kept)
			}
		})
	}
}

// fuzzSamples decodes little-endian 16-bit PCM the way a WAV body arrives.
func fuzzSamples(data []byte) []float64 {
	w := make([]float64, len(data)/2)
	for i := range w {
		w[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 32767
	}
	return w
}

func pcmBytes(samples []float64) []byte {
	b := make([]byte, 0, 2*len(samples))
	for _, v := range samples {
		v = math.Max(-1, math.Min(1, v))
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(math.Round(v*32767))))
	}
	return b
}

func FuzzTrackPitchMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for ri, rate := range []int{4000, 8000, 16000} {
		hop := rate * FrameMs / 1000
		f.Add(pcmBytes(goodSinger.render(r, 0.4, rate)), uint8(ri))
		f.Add(pcmBytes(poorSinger.render(r, 0.4, rate)), uint8(ri))
		f.Add(pcmBytes(whiteNoise(r, 10*hop, 0.3)), uint8(ri))
		f.Add(pcmBytes(noisySine(r, 10*hop, rate, 220, 0.5)), uint8(ri))
		f.Add(make([]byte, 20*hop), uint8(ri))                                 // all silence
		f.Add(pcmBytes(noisySine(r, 2*hop, rate, 300, 0.02)), uint8(ri))       // shorter than one window
		f.Add(pcmBytes(noisySine(r, 9*hop+hop/2, rate, 300, 0.02)), uint8(ri)) // trailing partial frame
	}
	f.Add(pcmBytes(goodSinger.render(r, 0.1, 44100)), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rateIdx uint8) {
		if len(data) > 1<<14 { // keeps the quadratic reference fast enough to fuzz
			return
		}
		requireSameAsReference(t, fuzzSamples(data), trackerRates[int(rateIdx)%len(trackerRates)])
	})
}

func TestTrackPitchAllocs(t *testing.T) {
	w := goodSinger.render(rand.New(rand.NewSource(3)), 2, DefaultSampleRate)
	// The output series and one autocorrelation buffer.
	if allocs := testing.AllocsPerRun(10, func() { TrackPitch(w, DefaultSampleRate) }); allocs > 2 {
		t.Errorf("TrackPitch allocates %v times per call, want at most 2", allocs)
	}
}

// The sample rate may come from a file header. What TrackPitch allocates
// must follow the samples it is given, not the rate: the scratch buffer is
// one lag per sample of a window, and a rate that leaves no whole frame
// allocates nothing.
func TestTrackPitchAllocationFollowsSamples(t *testing.T) {
	// TotalAlloc is the whole process's: a goroutine another test left
	// running can only add to a reading, so the least of a few is the call's.
	allocated := func(samples []float64, rate int) (frames int, bytes uint64) {
		bytes = math.MaxUint64
		for rep := 0; rep < 5; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			frames = len(TrackPitch(samples, rate))
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return frames, bytes
	}
	short := make([]float64, 100)
	if frames, bytes := allocated(short, math.MaxUint32); frames != 0 || bytes > 1<<10 {
		t.Errorf("100 samples at rate 2^32-1: %d frames, %d bytes allocated", frames, bytes)
	}
	// One frame, shorter than its window and than the longest lag
	// (rate/minPitchHz = 8 333): the buffer stops at the frame's length.
	w := whiteNoise(rand.New(rand.NewSource(8)), 6000, 0.3)
	const rate = 500000
	frames, bytes := allocated(w, rate)
	if frames != 1 || bytes > uint64(8*len(w)+4<<10) {
		t.Errorf("%d samples at %d Hz: %d frames, %d bytes allocated", len(w), rate, frames, bytes)
	}
	requireSameAsReference(t, w, rate)
}

// Samples no WAV decoder produces but a caller of the package may pass. A
// frame holding any of them has a non-finite energy and is unvoiced by the
// reference; the frames around it are tracked as usual.
func TestTrackPitchNonFiniteSamples(t *testing.T) {
	const rate = DefaultSampleRate
	hop := rate * FrameMs / 1000
	r := rand.New(rand.NewSource(5))
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200, -1e200, math.MaxFloat64} {
		for _, at := range []int{0, 1, 3*hop - 1, 10 * hop, 10*hop + 100, 20*hop - 1} {
			w := noisySine(r, 20*hop, rate, 220, 0.02)
			w[at] = bad
			if voiced := requireSameAsReference(t, w, rate); voiced == 0 && at >= 10*hop {
				t.Errorf("%v at %d: no voiced frame left", bad, at)
			}
		}
		w := noisySine(r, 12*hop, rate, 220, 0.02)
		for i := range w {
			if i%7 == 0 {
				w[i] = bad
			}
		}
		requireSameAsReference(t, w, rate)
	}
	// Finite energy from samples whose squares underflow or nearly overflow.
	for _, amp := range []float64{1e-160, 1e150, 1e153} {
		w := noisySine(r, 12*hop, rate, 220, 0.02)
		for i := range w {
			w[i] *= amp
		}
		requireSameAsReference(t, w, rate)
	}
}

// oneLagACF is the reference's autocorrelation of one frame: every lag from
// its own accumulator, products added in sample order.
func oneLagACF(frame []float64, minLag, maxLag int, r0 float64) []float64 {
	n := len(frame)
	acf := make([]float64, maxLag+1)
	for lag := minLag; lag <= maxLag; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += frame[i] * frame[i+lag]
		}
		acf[lag] = normalizeACF(s, n, lag, r0)
	}
	return acf
}

// Both implementations must reproduce the one-lag loop on every lag, not
// only on the lags that decide the pitch. The frames lean on the zero
// padding: the kernel multiplies each frame's last samples by +0, which
// gives -0 under a negative sample and must leave every sum as it was,
// including a sum that is itself +0 because the frame ends in exact zeros.
// lie holds NaN after each frame: nothing past a frame's end may be read.
func TestAutocorrelationMatchesOneLagLoop(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	negThenZeros := make([]float64, 256)
	for i := range negThenZeros[:128] {
		negThenZeros[i] = -0.1 - r.Float64()
	}
	negZeros := whiteNoise(r, 256, 0.5)
	for i := 100; i < 256; i++ {
		negZeros[i] = math.Copysign(0, -1)
	}
	frames := [][]float64{
		whiteNoise(r, 256, 0.5),
		noisySine(r, 256, 8000, 220, 0.05),
		negThenZeros,
		negZeros,
		{-1, -2, -3, -4},
		noisySine(r, 20, 8000, 800, 0.1), // shorter than one 16-lag block plus its padding
		noisySine(r, 47, 8000, 400, 0.1),
		noisySine(r, 1411, 44100, 300, 0.1),
	}
	// Shorter than one 32-lag block plus its padding: every pass of acf32
	// reads its second operand from the tail alone.
	for n := 20; n <= 40; n += 5 {
		frames = append(frames, noisySine(r, n, 8000, 700, 0.1))
	}
	for fi, clean := range frames {
		n := len(clean)
		lie := make([]float64, n+64)
		for i := range lie {
			lie[i] = math.NaN()
		}
		frame := lie[:n]
		copy(frame, clean)
		var r0 float64
		for _, v := range frame {
			r0 += v * v
		}
		// The last range ends within 31 of n but short of n-1: the lanes
		// past maxLag still run, on padding, and must read nothing past n.
		for _, lags := range [][2]int{{2, n - 1}, {10, min(133, n-1)}, {n / 2, n - 1}, {n - 1, n - 1}, {3, 3 + acfMaxLanes}, {max(2, n-45), max(2, n-9)}} {
			minLag, maxLag := lags[0], min(lags[1], n-1)
			want := oneLagACF(clean, minLag, maxLag, r0)
			eachKernel(t, func(kernel string) {
				acf := make([]float64, maxLag+1)
				for i := range acf {
					acf[i] = math.NaN() // stale scratch
				}
				autocorrelate(frame, framing{hop: n, window: n, minLag: minLag, maxLag: maxLag}, []float64{r0}, acf)
				for lag := minLag; lag <= maxLag; lag++ {
					if math.Float64bits(acf[lag]) != math.Float64bits(want[lag]) {
						t.Fatalf("%s, frame %d (n=%d), lags %d..%d: acf[%d] = %v (%#x), one-lag loop %v (%#x)", kernel, fi, n,
							minLag, maxLag, lag, acf[lag], math.Float64bits(acf[lag]), want[lag], math.Float64bits(want[lag]))
					}
				}
			})
		}
	}
}

// The assembly kernels against their Go contract, with NaN on both sides of
// the x and y[:len(x)+lanes-1] each is documented to read, and sums carried
// in from a previous call.
func TestACF16MatchesGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 kernel on this machine or build")
	}
	checkBlockMatchesGo(t, kernelAVX2)
}

func TestACF32MatchesGo(t *testing.T) {
	if !cpuHasAVX512() {
		t.Skip("no AVX-512 kernel on this machine or build")
	}
	checkBlockMatchesGo(t, kernelAVX512)
}

// The shared pass against acfBlockGo run frame by frame, on every kernel
// this machine runs: one to four frames (acfPass splits what a kernel's
// registers do not hold into passes), sums carried in from a previous pass,
// and NaN just past every range the pass may read or write: x,
// y[:len(x)+lanes-1], each frame's lanes, and the frame after the last.
func TestACFSharedMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	eachKernel(t, func(name string) {
		lanes := kernel.lanes
		for frames := 1; frames <= 4; frames++ {
			for _, m := range []int{0, 1, 2, 3, lanes - 1, lanes, lanes + 1, 55, 100, 241} {
				buf := make([]float64, 8+m+8+m+lanes-1+8)
				for i := range buf {
					buf[i] = math.NaN()
				}
				x := buf[8 : 8+m : 8+m]
				y := buf[8+m+8 : len(buf)-8 : len(buf)-8]
				for i := range x {
					x[i] = r.NormFloat64()
				}
				for i := range y {
					y[i] = r.NormFloat64()
				}
				got := make([][acfMaxLanes]float64, frames+1)
				for f := range got {
					for k := range got[f] {
						got[f][k] = math.NaN()
						if f < frames && k < lanes {
							got[f][k] = r.NormFloat64()
						}
					}
				}
				want := append([][acfMaxLanes]float64(nil), got...)
				acfPass(kernel, x, y, got[:frames])
				for f := range want[:frames] {
					acfBlockGo(x, y, &want[f], lanes)
				}
				for f := range want {
					for k := range want[f] {
						if math.Float64bits(got[f][k]) != math.Float64bits(want[f][k]) {
							t.Fatalf("%s, %d frames, m=%d: frame %d lane %d is %v (%#x), frame by frame %v (%#x)", name, frames, m, f, k,
								got[f][k], math.Float64bits(got[f][k]), want[f][k], math.Float64bits(want[f][k]))
						}
					}
				}
			}
		}
	})
}

func checkBlockMatchesGo(t *testing.T, k lagKernel) {
	r := rand.New(rand.NewSource(13))
	lanes := k.lanes
	for _, m := range []int{0, 1, 2, lanes - 1, lanes, lanes + 1, 100, 241} {
		buf := make([]float64, 8+m+8+m+lanes-1+8)
		for i := range buf {
			buf[i] = math.NaN()
		}
		x := buf[8 : 8+m : 8+m]
		y := buf[8+m+8 : len(buf)-8 : len(buf)-8]
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		var got [1][acfMaxLanes]float64
		var want [acfMaxLanes]float64
		for i := range want {
			got[0][i] = r.NormFloat64()
			want[i] = got[0][i]
		}
		acfBlock(lanes, x, y, got[:])
		acfBlockGo(x, y, &want, lanes)
		for i := range want {
			if math.Float64bits(got[0][i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s, m=%d lane %d: asm %v (%#x), Go %v (%#x)", k.name, m, i, got[0][i], math.Float64bits(got[0][i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TrackPitch reads samples where they lie; the kernels' wide loads must
// stop at each frame's end, the trailing short frames' included. NaN in the
// slack after the samples would unvoice any frame that read it.
func TestTrackPitchReadsNothingPastSamples(t *testing.T) {
	for _, rate := range []int{4000, 8000, 44100} {
		hop := rate * FrameMs / 1000
		r := rand.New(rand.NewSource(int64(rate)))
		for _, n := range []int{hop, 3*hop + 1, 5*hop + hop/2, 6*hop - 1, 9 * hop} {
			buf := make([]float64, n+4*hop)
			for i := range buf {
				buf[i] = math.NaN()
			}
			w := buf[:n]
			copy(w, noisySine(r, n, rate, 250, 0.02))
			requireSameAsReference(t, w, rate)
		}
	}
}

func TestKernelName(t *testing.T) {
	want := "portable"
	switch {
	case cpuHasAVX512():
		want = "avx512"
	case cpuHasAVX2():
		want = "avx2"
	}

	got := Kernel()
	if got != want {
		t.Errorf("Kernel() = %q, want %q", got, want)
	}
	t.Logf("pitch kernel %s chosen", got)
}

var sinkSeries ts.Series

// BenchmarkTrackPitch tracks one 6 s good-singer hum at 8 kHz, the body a
// /query request carries, and one at 44.1 kHz, where four frames share a
// sample, on each implementation this machine can run.
func BenchmarkTrackPitch(b *testing.B) {
	for _, rate := range []int{DefaultSampleRate, 44100} {
		w := goodSinger.render(rand.New(rand.NewSource(1)), 6, rate)
		frames := len(w) / (rate * FrameMs / 1000)
		b.Run(fmt.Sprintf("%dHz", rate), func(b *testing.B) {
			eachKernel(b, func(kernel string) {
				b.Run(kernel, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkSeries = TrackPitch(w, rate)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
				})
			})
		})
	}
}
