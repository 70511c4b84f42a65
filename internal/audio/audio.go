// Package audio provides the acoustic front end of the query-by-humming
// pipeline: rendering a (possibly expressive) pitch contour to a PCM
// waveform, and estimating a pitch time series back from audio with an
// autocorrelation pitch tracker — our stand-in for the Tolonen-Karjalainen
// multi-pitch analysis model the paper cites [27].
//
// The paper's input stage is "acoustic input segmented into frames of 10ms,
// each frame resolved into a pitch"; TrackPitch reproduces exactly that
// interface.
package audio

import (
	"fmt"
	"math"
	"math/rand"

	"warping/internal/ts"
)

const (
	// DefaultSampleRate is sufficient for vocal pitch range (up to the
	// ~1 kHz fundamental, far above a hummed melody).
	DefaultSampleRate = 8000
	// FrameMs is the analysis hop size in milliseconds (paper: 10 ms).
	FrameMs = 10
	// minPitchHz and maxPitchHz bound the tracker's search range; they
	// generously cover the human humming range.
	minPitchHz = 60
	maxPitchHz = 800
)

// MIDIToFreq converts a (possibly fractional) MIDI pitch to Hz.
func MIDIToFreq(pitch float64) float64 {
	return 440 * math.Pow(2, (pitch-69)/12)
}

// FreqToMIDI converts a frequency in Hz to a fractional MIDI pitch.
// Non-positive frequencies return 0 (unvoiced marker).
func FreqToMIDI(freq float64) float64 {
	if freq <= 0 {
		return 0
	}
	return 69 + 12*math.Log2(freq/440)
}

// SynthesisOptions controls waveform rendering.
type SynthesisOptions struct {
	// SampleRate in Hz; DefaultSampleRate if zero.
	SampleRate int
	// NoiseLevel adds white noise (breathiness); 0 = clean.
	NoiseLevel float64
	// VibratoCents and VibratoHz add pitch vibrato; 0 disables.
	VibratoCents float64
	VibratoHz    float64
	// Rand is the noise source; required when NoiseLevel > 0.
	Rand *rand.Rand
}

func (o *SynthesisOptions) fill() {
	if o.SampleRate == 0 {
		o.SampleRate = DefaultSampleRate
	}
}

// harmonics are the relative amplitudes of the synthesized voice's
// overtone series (element 0 = fundamental): a hummed "voice".
var harmonics = [...]float64{1, 0.4, 0.2}

// Synthesize renders a frame-level pitch contour (one MIDI pitch per 10 ms
// frame; 0 marks silence) into a PCM waveform in [-1, 1]. The oscillator is
// phase-continuous across frames so pitch glides do not click.
func Synthesize(pitchFrames ts.Series, opts SynthesisOptions) []float64 {
	opts.fill()
	if opts.NoiseLevel > 0 && opts.Rand == nil {
		panic("audio: NoiseLevel requires a Rand source")
	}
	samplesPerFrame := opts.SampleRate * FrameMs / 1000
	out := make([]float64, len(pitchFrames)*samplesPerFrame)
	phase := 0.0
	vibPhase := 0.0
	for f, pitch := range pitchFrames {
		base := out[f*samplesPerFrame : (f+1)*samplesPerFrame]
		if pitch <= 0 {
			if opts.NoiseLevel > 0 {
				for i := range base {
					base[i] = opts.Rand.NormFloat64() * opts.NoiseLevel * 0.25
				}
			}
			continue
		}
		for i := range base {
			p := pitch
			if opts.VibratoCents > 0 {
				vibPhase += 2 * math.Pi * opts.VibratoHz / float64(opts.SampleRate)
				p += opts.VibratoCents / 100 * math.Sin(vibPhase)
			}
			freq := MIDIToFreq(p)
			phase += 2 * math.Pi * freq / float64(opts.SampleRate)
			var v float64
			for h, amp := range harmonics {
				v += amp * math.Sin(phase*float64(h+1))
			}
			if opts.NoiseLevel > 0 {
				v += opts.Rand.NormFloat64() * opts.NoiseLevel
			}
			base[i] = v * 0.5
		}
	}
	return out
}

// MinSampleRate is the lowest sample rate TrackPitch and FrameEnergies
// accept: below it a 10 ms hop holds no sample. Callers that take the rate
// from outside the program (a WAV header) must check it first.
const MinSampleRate = 1000 / FrameMs

// MaxSampleRate is the highest sample rate worth accepting from outside the
// program; no recording format goes above it, so a header that does is
// corrupt or hostile. TrackPitch does not enforce it: its cost follows the
// samples it is given, whatever rate they claim.
const MaxSampleRate = 192000

// TrackPitch estimates a pitch time series from PCM audio: one MIDI pitch
// per 10 ms frame, 0 for unvoiced/silent frames. The estimator is a
// normalized autocorrelation over a 32 ms window with parabolic peak
// interpolation. It panics when sampleRate is below MinSampleRate.
func TrackPitch(samples []float64, sampleRate int) ts.Series {
	if sampleRate <= 0 {
		panic(fmt.Sprintf("audio: invalid sample rate %d", sampleRate))
	}
	if sampleRate < MinSampleRate {
		panic("audio: sample rate too low for framing")
	}
	hop := sampleRate * FrameMs / 1000
	window := sampleRate * 32 / 1000
	minLag := sampleRate / maxPitchHz
	maxLag := sampleRate / minPitchHz
	if minLag < 2 {
		minLag = 2
	}
	numFrames := len(samples) / hop
	out := make(ts.Series, 0, numFrames)
	if numFrames == 0 {
		return out
	}
	// One autocorrelation buffer for the whole call, indexed by lag.
	// estimateFrame writes every lag it reads, each frame, and none at or
	// past the frame's length, so the buffer follows the samples and not a
	// sample rate the caller may have read from a file header. The lag-block
	// kernels need no second region: they read the frame where it lies in
	// samples, and their zero padding is at most 62 values on their
	// driver's stack.
	acf := make([]float64, min(maxLag+1, window, len(samples)))
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
		out = append(out, estimateFrame(frame, sampleRate, minLag, maxLag, acf))
	}
	return out
}

// estimateFrame returns the MIDI pitch of one analysis frame, or 0. acf is
// scratch indexed by lag, of at least min(maxLag+1, len(frame)) elements,
// holding stale values from earlier frames. Two invariants make that safe,
// on every implementation: every lag in [minLag, maxLag] is written before
// any is read, each frame; and nothing outside the frame is read — where a
// lag-block kernel's 16- or 32-wide loads would run past the frame's end
// they read acfLagBlocks' tail, whose padding is zero on entry to every
// frame, trailing short frames included.
//
// All lags are computed for every frame that passes the silence gate, so a
// frame costs the same whatever pitch it holds.
func estimateFrame(frame []float64, sampleRate, minLag, maxLag int, acf []float64) float64 {
	n := len(frame)
	var energy float64
	for _, v := range frame {
		energy += v * v
	}
	if energy/float64(n) < 1e-4 { // silence gate
		return 0
	}
	if math.IsNaN(energy) || math.IsInf(energy, 1) {
		// A sample is NaN or ±Inf, or the squares overflow. Every
		// normalized lag is then NaN or ±0 (r0 divides it), no lag clears
		// the voicing threshold and the frame is unvoiced. Returning here
		// is what lets the kernel assume finite samples: x·0 is ±0 for
		// those only.
		return 0
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	// Normalized autocorrelation r(lag) / r(0).
	r0 := energy
	autocorrelate(frame, minLag, maxLag, r0, acf)
	// Pick the first peak above a voicing threshold; prefer earlier lags
	// (higher frequencies) to avoid octave-down errors.
	const voicing = 0.5
	bestLag := 0
	bestVal := 0.0
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
	peak := float64(bestLag)
	if bestLag > minLag && bestLag < maxLag {
		y0, y1, y2 := acf[bestLag-1], acf[bestLag], acf[bestLag+1]
		den := y0 - 2*y1 + y2
		if den != 0 {
			delta := 0.5 * (y0 - y2) / den
			if delta > -1 && delta < 1 {
				peak += delta
			}
		}
	}
	return FreqToMIDI(float64(sampleRate) / peak)
}

// normalizeACF turns a raw lag sum into r(lag)/r(0), length-normalized so
// long lags are not penalized.
func normalizeACF(s float64, n, lag int, r0 float64) float64 {
	norm := s / float64(n-lag) * float64(n)
	return norm / r0
}

// acfMaxLanes is the most consecutive lags one pass of a lag-block kernel
// computes: acf32's four zmm accumulators of eight float64 lanes. acf16's
// four ymm accumulators hold 16.
const acfMaxLanes = 32

// lagKernel is an autocorrelation implementation: the lag-block kernel of
// lanes lanes (acfBlock), or, with lanes 0, the portable acf4 loop.
type lagKernel struct {
	name  string
	lanes int
}

var (
	kernelAVX512   = lagKernel{"avx512", 32}
	kernelAVX2     = lagKernel{"avx2", 16}
	kernelPortable = lagKernel{"portable", 0}
)

// kernel is the autocorrelation implementation TrackPitch runs: the widest
// lag-block kernel the CPU and operating system support, or the portable
// acf4 loop, which is also the only one on other architectures and under
// the purego build tag. It is decided once, from CPUID, before main runs;
// only tests assign it afterwards.
var kernel = bestKernel()

func bestKernel() lagKernel {
	switch {
	case cpuHasAVX512():
		return kernelAVX512
	case cpuHasAVX2():
		return kernelAVX2
	}
	return kernelPortable
}

// Kernel names the autocorrelation implementation TrackPitch runs on this
// machine: "avx512", "avx2" or "portable". All return the same bits.
func Kernel() string { return kernel.name }

// autocorrelate fills acf[minLag..maxLag] with the normalized
// autocorrelation r(lag)/r0 of frame, on the implementation kernel selects.
func autocorrelate(frame []float64, minLag, maxLag int, r0 float64, acf []float64) {
	if kernel.lanes == 0 {
		acfPortable(frame, minLag, maxLag, r0, acf)
		return
	}
	acfLagBlocks(frame, minLag, maxLag, r0, acf, kernel.lanes)
}

// acfBlock runs the lag-block kernel of the given width: acf32 at 32 lanes,
// acf16 at 16. The calls are direct, not through a func value, so that
// escape analysis keeps the caller's sums on its stack.
func acfBlock(lanes int, x, y []float64, sums *[acfMaxLanes]float64) {
	if lanes == 32 {
		acf32(x, y, sums)
	} else {
		acf16(x, y, sums)
	}
}

// acfLagBlocks is autocorrelate on a lag-block kernel: lanes consecutive
// lags (16 or 32) per pass of acfBlock.
//
// Lane k of the block at lag L accumulates frame[i]·frame[i+L+k] for i
// ascending from 0, which is the one-lag loop's sum as long as every lane
// stops at its own last product, i = n-1-L-k. The lanes share one loop, so
// instead the loop runs to lane 0's end, i = n-1-L, and the up to lanes-1
// extra products of the longer lags are taken against zero: for its last
// lanes-1 iterations the block reads its second operand from tail — the
// frame's last lanes-1 samples followed by lanes-1 zeros — and not from
// the frame. The samples are finite (estimateFrame returned before this
// otherwise), so such a product is +0 or -0, and s + (±0) is s for every s
// an accumulator can hold: it starts at +0 and round-to-nearest addition
// yields -0 only from two -0 operands, so s is never -0, and +0 + (-0) is
// +0. The padding therefore changes no bit of any sum. Lanes of the last
// block that lie beyond maxLag compute sums nobody reads.
func acfLagBlocks(frame []float64, minLag, maxLag int, r0 float64, acf []float64, lanes int) {
	pad := lanes - 1
	n := len(frame)
	var tail [2 * (acfMaxLanes - 1)]float64
	copy(tail[max(0, pad-n):pad], frame[max(0, n-pad):])
	for lag := minLag; lag <= maxLag; lag += lanes {
		var sums [acfMaxLanes]float64
		// i < whole: all lanes' second operands lie inside the frame.
		whole := max(0, n-lag-pad)
		if whole > 0 {
			acfBlock(lanes, frame[:whole], frame[lag:], &sums)
		}
		rest := n - lag - whole // lanes-1, or fewer when the lag is within lanes-1 of n
		acfBlock(lanes, frame[whole:n-lag], tail[pad-rest:], &sums)
		for k := 0; k < lanes && lag+k <= maxLag; k++ {
			acf[lag+k] = normalizeACF(sums[k], n, lag+k, r0)
		}
	}
}

// acfBlockGo is the contract of the lag-block kernels in Go: for each i in
// ascending order, sums[k] += x[i]*y[i+k] for the first lanes lags k, each
// product rounded before it is added. It reads x and y[:len(x)+lanes-1]
// only, and leaves sums[lanes:] as it was.
func acfBlockGo(x, y []float64, sums *[acfMaxLanes]float64, lanes int) {
	y = y[:len(x)+lanes-1]
	for i, v := range x {
		for k := range sums[:lanes] {
			sums[k] += v * y[i+k]
		}
	}
}

// acfPortable is autocorrelate in Go: four lags per pass over the frame.
func acfPortable(frame []float64, minLag, maxLag int, r0 float64, acf []float64) {
	n := len(frame)
	lag := minLag
	for ; lag+3 <= maxLag; lag += 4 {
		s0, s1, s2, s3 := acf4(frame, lag)
		acf[lag] = normalizeACF(s0, n, lag, r0)
		acf[lag+1] = normalizeACF(s1, n, lag+1, r0)
		acf[lag+2] = normalizeACF(s2, n, lag+2, r0)
		acf[lag+3] = normalizeACF(s3, n, lag+3, r0)
	}
	for ; lag <= maxLag; lag++ {
		var s float64
		for i, x := range frame[:n-lag] {
			s += x * frame[i+lag]
		}
		acf[lag] = normalizeACF(s, n, lag, r0)
	}
}

// acf4 returns the raw autocorrelation sums of frame at lag..lag+3, which
// must all be below len(frame). Each sum has its own accumulator and adds
// its products in ascending sample order, so each is the same float64 a
// one-lag loop produces; one pass over the frame feeds four independent add
// chains instead of one latency-bound chain.
func acf4(frame []float64, lag int) (s0, s1, s2, s3 float64) {
	m := len(frame) - lag - 3 // products the four sums share
	x := frame[:m]
	f0 := frame[lag : lag+m]
	f1 := frame[lag+1 : lag+1+m]
	f2 := frame[lag+2 : lag+2+m]
	f3 := frame[lag+3 : lag+3+m]
	for i, v := range x {
		s0 += v * f0[i]
		s1 += v * f1[i]
		s2 += v * f2[i]
		s3 += v * f3[i]
	}
	// The shorter lags pair with 3, 2 and 1 more samples.
	a, b, c := frame[m], frame[m+1], frame[m+2]
	t := frame[m+lag:] // the frame's last three samples
	s0 += a * t[0]
	s1 += a * t[1]
	s2 += a * t[2]
	s0 += b * t[1]
	s1 += b * t[2]
	s0 += c * t[2]
	return
}

// FrameEnergies returns the mean energy of each 10 ms frame — the loudness
// contour used by onset-based note segmentation (a hummer separates notes
// with small dips in breath pressure even without silence).
func FrameEnergies(samples []float64, sampleRate int) ts.Series {
	if sampleRate <= 0 {
		panic(fmt.Sprintf("audio: invalid sample rate %d", sampleRate))
	}
	if sampleRate < MinSampleRate {
		panic("audio: sample rate too low for framing")
	}
	hop := sampleRate * FrameMs / 1000
	numFrames := len(samples) / hop
	out := make(ts.Series, numFrames)
	for f := 0; f < numFrames; f++ {
		frame := samples[f*hop : (f+1)*hop]
		var e float64
		for _, v := range frame {
			e += v * v
		}
		out[f] = e / float64(len(frame))
	}
	return out
}
