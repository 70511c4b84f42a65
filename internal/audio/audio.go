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
	fr := framing{
		hop:    sampleRate * FrameMs / 1000,
		window: sampleRate * 32 / 1000,
		minLag: max(2, sampleRate/maxPitchHz),
		maxLag: sampleRate / minPitchHz,
	}
	numFrames := len(samples) / fr.hop
	out := make(ts.Series, numFrames)
	if numFrames == 0 {
		return out
	}
	// One autocorrelation row per frame of a chunk, indexed by lag, for the
	// whole call. autocorrelate writes every lag a frame's scans read, and
	// none at or past the frame's length, so a row follows the samples and
	// not a sample rate the caller may have read from a file header. The
	// kernels need no second region: they read the frames where they lie in
	// samples, and their zero padding is on autocorrelate's stack.
	row := min(fr.maxLag+1, fr.window, len(samples))
	acf := make([]float64, row*min(acfChunk, numFrames))
	for f := 0; f < numFrames; f += acfChunk {
		x := samples[f*fr.hop:]
		pitch := out[f:min(f+acfChunk, numFrames)]
		var r0 [acfChunk]float64
		energies(x, fr, r0[:len(pitch)])
		for t, e := range r0[:len(pitch)] {
			n := fr.frameLen(x, t)
			// A gated frame (r0 0) joins no pass and is unvoiced: one
			// shorter than two minimum lags, a silent one, and a non-finite
			// one — a sample is NaN or ±Inf, or the squares overflow. Every
			// normalized lag of the last is NaN or ±0 (r0 divides it), so
			// no lag would clear the voicing threshold. Gating it here is
			// what lets the kernels assume finite samples: x·0 is ±0 for
			// those only.
			if n < 2*fr.minLag || e/float64(n) < 1e-4 || math.IsNaN(e) || math.IsInf(e, 1) {
				r0[t] = 0
			}
		}
		autocorrelate(x, fr, r0[:len(pitch)], acf[:row*len(pitch)])
		for t, e := range r0[:len(pitch)] {
			if e != 0 {
				last := min(fr.maxLag, fr.frameLen(x, t)-1)
				pitch[t] = pickPitch(acf[t*row:(t+1)*row], fr.minLag, last, sampleRate)
			}
		}
	}
	return out
}

// framing is how TrackPitch cuts samples into frames, and the lags it
// searches in each.
type framing struct {
	hop, window    int // samples from one frame's start to the next's, and in a whole frame
	minLag, maxLag int
}

// frameLen is the length of frame t of x, x[t*hop : t*hop+frameLen]: a
// window, or what is left of x.
func (fr framing) frameLen(x []float64, t int) int { return min(fr.window, len(x)-t*fr.hop) }

// acfChunk is how many consecutive frames TrackPitch analyses together. A
// 32 ms window spans 3.2 hops, so most samples lie in three or four frames
// of a chunk, and its padding-free products are multiplied once for all of
// them. Sixteen keeps autocorrelate's scratch (sums and tails) at 12 KiB of
// stack.
const acfChunk = 16

// energies sets r0[t] to the energy of frame t of x, its squared samples
// summed in ascending order from +0 as one accumulator would. Four whole
// frames a pass keep four add chains in flight.
func energies(x []float64, fr framing, r0 []float64) {
	t := 0
	for ; t+4 <= len(r0) && (t+3)*fr.hop+fr.window <= len(x); t += 4 {
		f0 := x[t*fr.hop:][:fr.window]
		f1 := x[(t+1)*fr.hop:][:len(f0)]
		f2 := x[(t+2)*fr.hop:][:len(f0)]
		f3 := x[(t+3)*fr.hop:][:len(f0)]
		var e0, e1, e2, e3 float64
		for i, v := range f0 {
			e0 += v * v
			e1 += f1[i] * f1[i]
			e2 += f2[i] * f2[i]
			e3 += f3[i] * f3[i]
		}
		r0[t], r0[t+1], r0[t+2], r0[t+3] = e0, e1, e2, e3
	}
	for ; t < len(r0); t++ {
		var e float64
		for _, v := range x[t*fr.hop:][:fr.frameLen(x, t)] {
			e += v * v
		}
		r0[t] = e
	}
}

// pickPitch returns the MIDI pitch of a frame whose normalized
// autocorrelation is acf[minLag..maxLag], or 0 when it is unvoiced.
func pickPitch(acf []float64, minLag, maxLag, sampleRate int) float64 {
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
// computes: acf32's four zmm accumulators of eight float64 lanes a frame.
const acfMaxLanes = 32

// lagKernel is an autocorrelation implementation: a lag-block kernel
// (acfBlock) of lanes consecutive lags, which adds each product into up to
// frames frames' sums in one pass.
type lagKernel struct {
	name          string
	lanes, frames int
}

var (
	// acf32: 4 frames × 4 zmm accumulators, 4 products and a broadcast
	// fill 21 of the 32 zmm registers, and no sample lies in five frames.
	kernelAVX512 = lagKernel{"avx512", 32, 4}
	// acf16: 3 frames × 4 ymm accumulators, a broadcast and three
	// products fill the 16 ymm registers.
	kernelAVX2 = lagKernel{"avx2", 16, 3}
	// acf4: 2 frames × 4 accumulators, 4 products and the sample leave
	// Go's register allocator two of its 15 float registers.
	kernelPortable = lagKernel{"portable", 4, 2}
)

// kernel is the autocorrelation implementation TrackPitch runs: the widest
// assembly kernel the CPU and operating system support, or the portable Go
// acf4, which is also the only one on other architectures and under the
// purego build tag. It is decided once, from CPUID, before main runs; only
// tests assign it afterwards.
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

// autocorrelate fills row t of acf (rows of len(acf)/len(r0) entries,
// indexed by lag) at every lag in [minLag, min(maxLag, n-1)] with the
// normalized autocorrelation r(lag)/r0[t] of frame t, x[t*hop : t*hop+n] of
// n = frameLen(x, t) samples, for each frame whose energy r0[t] is not 0.
// A frame with r0[t] = 0 was gated: it joins no pass and its row is left
// as it was. The others' samples are finite, and r0[t] is their energy.
//
// Lags go lanes at a time (a lag block), and lane k of the block at lag L
// accumulates frame[i]·frame[i+L+k] for i ascending from 0, which is the
// one-lag loop's sum as long as every lane stops at its own last product,
// i = n-1-L-k. The lanes share one loop, so instead the loop runs to lane
// 0's end, i = n-1-L, and the up to lanes-1 extra products of the longer
// lags are taken against zero: for its last lanes-1 iterations the block
// reads its second operand from the frame's tail — its last lanes-1
// samples followed by lanes-1 zeros — and not from the frame. The samples
// are finite, so such a product is +0 or -0, and s + (±0) is s for every s
// an accumulator can hold: it starts at +0 and round-to-nearest addition
// yields -0 only from two -0 operands, so s is never -0, and +0 + (-0) is
// +0. The padding therefore changes no bit of any sum. Lanes of the last
// block that lie beyond maxLag compute sums nobody reads.
//
// Frames overlap, and the product vector x[j]·x[j+L .. j+L+lanes-1] is the
// same in every frame that holds sample j in its padding-free part
// (i < n-L-(lanes-1)). So the block's padding-free iterations are swept
// once over x, in segments within which the set of frames holding them
// does not change, and each segment is one pass that multiplies once per
// sample and adds the product into every frame's sums. A frame's lane still
// adds the same rounded products in the same ascending order from +0;
// only who multiplied them changes.
func autocorrelate(x []float64, fr framing, r0, acf []float64) {
	k := kernel
	pad := k.lanes - 1
	row := len(acf) / len(r0)
	var n, ends [acfChunk]int
	var tails [acfChunk][2 * (acfMaxLanes - 1)]float64
	for t := range r0 {
		n[t] = fr.frameLen(x, t)
		frame := x[t*fr.hop:][:n[t]]
		copy(tails[t][max(0, pad-n[t]):pad], frame[max(0, n[t]-pad):])
	}
	var sums [acfChunk][acfMaxLanes]float64
	for lag := fr.minLag; lag <= fr.maxLag; lag += k.lanes {
		clear(sums[:len(r0)])
		// Frame t's padding-free iterations are x[t*hop : ends[t]]. Both
		// ends grow with t, so the frames holding a sample are a run
		// [lo, hi), and a segment ends where the next frame starts or the
		// run's first frame ends.
		for t := range r0 {
			ends[t] = t*fr.hop + max(0, n[t]-lag-pad)
		}
		for pos, lo, hi := 0, 0, 0; ; {
			for hi < len(r0) && hi*fr.hop <= pos {
				hi++
			}
			for lo < hi && ends[lo] <= pos {
				lo++
			}
			if lo == hi {
				if hi == len(r0) {
					break
				}
				pos = hi * fr.hop
				continue
			}
			next := ends[lo]
			if hi < len(r0) {
				next = min(next, hi*fr.hop)
			}
			for t := lo; t < hi; {
				if r0[t] == 0 {
					t++
					continue
				}
				u := t + 1
				for u < hi && r0[u] != 0 {
					u++
				}
				acfPass(k, x[pos:next], x[pos+lag:], sums[t:u])
				t = u
			}
			pos = next
		}
		for t, e := range r0 {
			last := min(fr.maxLag, n[t]-1)
			if e == 0 || lag > last {
				continue
			}
			whole := max(0, n[t]-lag-pad)
			rest := n[t] - lag - whole // lanes-1, or fewer when the lag is within lanes-1 of n
			start := t * fr.hop
			acfBlock(k.lanes, x[start+whole:start+n[t]-lag], tails[t][pad-rest:], sums[t:t+1])
			acfNorm(k.lanes, &sums[t], n[t], lag, e)
			copy(acf[t*row+lag:t*row+last+1], sums[t][:k.lanes])
		}
	}
}

// acfPass adds x[i]·y[i+k] into sums[t][k] for every frame t of sums and
// every lane k, i ascending, in kernel passes of at most k.frames frames.
func acfPass(k lagKernel, x, y []float64, sums [][acfMaxLanes]float64) {
	for len(sums) > 0 {
		m := min(len(sums), k.frames)
		acfBlock(k.lanes, x, y, sums[:m])
		sums = sums[m:]
	}
}

// acfBlock runs the lag-block kernel of the given width: acf32 at 32 lanes,
// acf16 at 16, acf4 at 4. The calls are direct, not through a func value,
// so that escape analysis keeps the caller's sums on its stack.
func acfBlock(lanes int, x, y []float64, sums [][acfMaxLanes]float64) {
	switch lanes {
	case 32:
		acf32(x, y, sums)
	case 16:
		acf16(x, y, sums)
	default:
		acf4(x, y, sums)
	}
}

// acfNorm sets sums[k] to normalizeACF(sums[k], n, lag+k, r0) in each of
// the kernel's lanes k: in vector lanes on acf32's and acf16's, with the
// same three IEEE operations (divide, multiply, divide) and no reciprocal.
// Lanes at or past n-lag hold what dividing by zero or less gives.
func acfNorm(lanes int, sums *[acfMaxLanes]float64, n, lag int, r0 float64) {
	switch lanes {
	case 32:
		acfNorm32(sums, float64(n-lag), float64(n), r0)
	case 16:
		acfNorm16(sums, float64(n-lag), float64(n), r0)
	default:
		for k, s := range sums[:lanes] {
			sums[k] = normalizeACF(s, n, lag+k, r0)
		}
	}
}

// acfBlockGo is the contract of the lag-block kernels in Go, for one
// frame: for each i in ascending order, sums[k] += x[i]*y[i+k] for the
// first lanes lags k, each product rounded before it is added. It reads x
// and y[:len(x)+lanes-1] only, and leaves sums[lanes:] as it was. A kernel
// pass over several frames must leave each frame's sums as this would.
func acfBlockGo(x, y []float64, sums *[acfMaxLanes]float64, lanes int) {
	y = y[:len(x)+lanes-1]
	for i, v := range x {
		for k := range sums[:lanes] {
			sums[k] += v * y[i+k]
		}
	}
}

// acf4 is the portable lag-block kernel: acfBlockGo at four lanes for one
// or two frames, the second frame's sums taking the first's products.
// Each lane has its own accumulator in a register and adds in ascending
// sample order, so each sum is the float64 a one-lag loop produces.
func acf4(x, y []float64, sums [][acfMaxLanes]float64) {
	m := len(x)
	y0, y1, y2, y3 := y[:m], y[1:m+1], y[2:m+2], y[3:m+3]
	a := &sums[0]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	if len(sums) == 1 {
		for i, v := range x {
			a0 += v * y0[i]
			a1 += v * y1[i]
			a2 += v * y2[i]
			a3 += v * y3[i]
		}
	} else {
		b := &sums[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		for i, v := range x {
			p0, p1, p2, p3 := v*y0[i], v*y1[i], v*y2[i], v*y3[i]
			a0 += p0
			a1 += p1
			a2 += p2
			a3 += p3
			b0 += p0
			b1 += p1
			b2 += p2
			b3 += p3
		}
		b[0], b[1], b[2], b[3] = b0, b1, b2, b3
	}
	a[0], a[1], a[2], a[3] = a0, a1, a2, a3
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
