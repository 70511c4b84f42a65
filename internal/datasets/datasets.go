// Package datasets provides deterministic, seeded synthetic generators for
// the 24 time-series families of the paper's Figure 6 (originally drawn
// from the UCR Time Series Data Mining Archive, which is not redistributed
// here) plus the random-walk family of Figures 7 and 10.
//
// Each generator mimics the qualitative character of its family — period
// structure, smoothness, burstiness, drift — because those are the
// properties the tightness-of-lower-bound measure is sensitive to. The
// substitution is documented in DESIGN.md.
package datasets

import (
	"math"
	"math/rand"

	"warping/internal/ts"
)

// Generator produces one series of length n from the given source.
type Generator func(r *rand.Rand, n int) ts.Series

// Dataset is a named generator, ordered as in Figure 6 of the paper.
type Dataset struct {
	// ID is the 1-based position in Figure 6's x-axis.
	ID   int
	Name string
	Gen  Generator
}

// All returns the 24 Figure 6 dataset families in paper order.
func All() []Dataset {
	return []Dataset{
		{1, "Sunspot", Sunspot},
		{2, "Power", Power},
		{3, "Spot Exrates", SpotExrates},
		{4, "Shuttle", Shuttle},
		{5, "Water", Water},
		{6, "Chaotic", Chaotic},
		{7, "Streamgen", Streamgen},
		{8, "Ocean", Ocean},
		{9, "Tide", Tide},
		{10, "CSTR", CSTR},
		{11, "Winding", Winding},
		{12, "Dryer2", Dryer2},
		{13, "Ph Data", PhData},
		{14, "Power Plant", PowerPlant},
		{15, "Balleam", Balleam},
		{16, "Standard & Poor", StandardPoor},
		{17, "Soil Temp", SoilTemp},
		{18, "Wool", Wool},
		{19, "Infrasound", Infrasound},
		{20, "EEG", EEG},
		{21, "Koski EEG", KoskiEEG},
		{22, "Buoy Sensor", BuoySensor},
		{23, "Burst", Burst},
		{24, "Random walk", RandomWalk},
	}
}

// Sample draws count independent series of length n from the generator,
// each mean-subtracted (the experimental protocol of Section 5.2 subtracts
// the mean from each series).
func Sample(g Generator, count, n int, seed int64) []ts.Series {
	r := rand.New(rand.NewSource(seed))
	out := make([]ts.Series, count)
	for i := range out {
		out[i] = g(r, n).ZeroMean()
	}
	return out
}

// --- Generator implementations -----------------------------------------

// RandomWalk is a standard Gaussian random walk, "the most studied dataset
// of time series indexing".
func RandomWalk(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64()
		s[i] = v
	}
	return s
}

// Sunspot mimics the solar cycle: rectified ~11-sample-period oscillation
// with cycle-to-cycle amplitude variation and observation noise.
func Sunspot(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	period := 22 + r.Float64()*6
	phase := r.Float64() * 2 * math.Pi
	amp := 40 + r.Float64()*40
	for i := range s {
		c := math.Sin(2*math.Pi*float64(i)/period + phase)
		if c < 0 {
			c = -0.2 * c // asymmetric rectification
		}
		wobble := 1 + 0.3*math.Sin(2*math.Pi*float64(i)/(period*7))
		s[i] = amp*c*wobble + r.NormFloat64()*3
	}
	return s
}

// Power mimics electric load: strong daily cycle, weekday/weekend
// modulation, noise.
func Power(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	base := 100 + r.Float64()*50
	phase := r.Float64() * 2 * math.Pi
	for i := range s {
		day := math.Sin(2*math.Pi*float64(i)/24 + phase)
		week := 1.0
		if (i/24)%7 >= 5 {
			week = 0.7
		}
		s[i] = base + 30*day*week + r.NormFloat64()*4
	}
	return s
}

// SpotExrates mimics currency spot rates: a very smooth low-volatility
// random walk.
func SpotExrates(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 1 + r.Float64()
	for i := range s {
		v += r.NormFloat64() * 0.002
		s[i] = v
	}
	return s
}

// Shuttle mimics space-shuttle telemetry: long constant plateaus with
// abrupt level shifts and rare spikes.
func Shuttle(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	level := r.Float64() * 50
	for i := range s {
		if r.Float64() < 0.02 {
			level += (r.Float64() - 0.5) * 40
		}
		v := level
		if r.Float64() < 0.005 {
			v += (r.Float64() - 0.5) * 100
		}
		s[i] = v + r.NormFloat64()*0.2
	}
	return s
}

// Water mimics river flow: seasonal cycle plus slow trend plus skewed noise.
func Water(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	phase := r.Float64() * 2 * math.Pi
	trend := (r.Float64() - 0.5) * 0.05
	for i := range s {
		season := 20 * math.Sin(2*math.Pi*float64(i)/64+phase)
		spike := 0.0
		if r.Float64() < 0.03 {
			spike = r.Float64() * 30
		}
		s[i] = 50 + season + trend*float64(i) + spike + r.NormFloat64()*2
	}
	return s
}

// Chaotic is the logistic map in its chaotic regime, lightly smoothed.
func Chaotic(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	x := 0.1 + r.Float64()*0.8
	for i := range s {
		x = 3.97 * x * (1 - x)
		s[i] = x * 10
	}
	return ts.MovingAverage(s, 1)
}

// Streamgen mimics a synthetic stream generator: a chirp whose frequency
// drifts over time plus a level shift halfway.
func Streamgen(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	f0 := 0.01 + r.Float64()*0.03
	f1 := f0 * (2 + r.Float64()*2)
	shift := r.Float64() * 10
	for i := range s {
		t := float64(i) / float64(n)
		f := f0 + (f1-f0)*t
		v := 5 * math.Sin(2*math.Pi*f*float64(i))
		if i > n/2 {
			v += shift
		}
		s[i] = v + r.NormFloat64()*0.5
	}
	return s
}

// Ocean mimics narrowband ocean-wave height records.
func Ocean(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	p1 := 8 + r.Float64()*4
	p2 := p1 * (1.1 + r.Float64()*0.3)
	ph1 := r.Float64() * 2 * math.Pi
	ph2 := r.Float64() * 2 * math.Pi
	for i := range s {
		s[i] = 3*math.Sin(2*math.Pi*float64(i)/p1+ph1) +
			2*math.Sin(2*math.Pi*float64(i)/p2+ph2) +
			r.NormFloat64()*0.3
	}
	return s
}

// Tide mixes the semidiurnal and diurnal tidal constituents.
func Tide(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	ph1 := r.Float64() * 2 * math.Pi
	ph2 := r.Float64() * 2 * math.Pi
	for i := range s {
		t := float64(i)
		s[i] = 10*math.Sin(2*math.Pi*t/12.42+ph1) +
			4*math.Sin(2*math.Pi*t/24+ph2) +
			r.NormFloat64()*0.5
	}
	return s
}

// CSTR mimics a continuous stirred-tank reactor: first-order exponential
// responses to random setpoint steps.
func CSTR(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	target := r.Float64() * 10
	v := target
	tau := 0.05 + r.Float64()*0.1
	for i := range s {
		if r.Float64() < 0.03 {
			target = r.Float64() * 10
		}
		v += (target - v) * tau
		s[i] = v + r.NormFloat64()*0.05
	}
	return s
}

// Winding mimics an industrial web-winding process: smooth oscillation with
// AR-filtered disturbances.
func Winding(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	ar := 0.0
	ph := r.Float64() * 2 * math.Pi
	for i := range s {
		ar = 0.95*ar + r.NormFloat64()*0.3
		s[i] = 2*math.Sin(2*math.Pi*float64(i)/40+ph) + ar
	}
	return s
}

// Dryer2 mimics a hair-dryer system-identification record: low-pass
// filtered binary excitation.
func Dryer2(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	input := 1.0
	for i := range s {
		if r.Float64() < 0.1 {
			input = -input
		}
		v += (input*3 - v) * 0.2
		s[i] = v + r.NormFloat64()*0.1
	}
	return s
}

// PhData mimics pH titration: sigmoid transitions between plateaus.
func PhData(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	level := 4 + r.Float64()*2
	target := level
	for i := range s {
		if r.Float64() < 0.02 {
			target = 2 + r.Float64()*10
		}
		level += (target - level) * 0.08
		s[i] = level + r.NormFloat64()*0.05
	}
	return s
}

// PowerPlant mimics power-plant sensor data: daily cycle, drift, and heavy
// measurement noise.
func PowerPlant(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	drift := (r.Float64() - 0.5) * 0.1
	ph := r.Float64() * 2 * math.Pi
	for i := range s {
		s[i] = 200 + 15*math.Sin(2*math.Pi*float64(i)/96+ph) +
			drift*float64(i) + r.NormFloat64()*5
	}
	return s
}

// Balleam mimics a ball-and-beam control experiment: lightly damped
// oscillations re-excited at random times.
func Balleam(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	amp := 1.0
	phase := 0.0
	freq := 0.15 + r.Float64()*0.1
	for i := range s {
		if r.Float64() < 0.02 {
			amp = 0.5 + r.Float64()*2
			phase = r.Float64() * 2 * math.Pi
		}
		amp *= 0.995
		s[i] = amp*math.Sin(2*math.Pi*freq*float64(i)+phase) + r.NormFloat64()*0.05
	}
	return s
}

// StandardPoor mimics an equity index: geometric random walk.
func StandardPoor(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := math.Log(100 + r.Float64()*1000)
	for i := range s {
		v += 0.0002 + r.NormFloat64()*0.01
		s[i] = math.Exp(v)
	}
	return s
}

// SoilTemp mimics soil temperature: slow seasonal wave with damped daily
// ripple and low noise.
func SoilTemp(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	ph := r.Float64() * 2 * math.Pi
	for i := range s {
		t := float64(i)
		s[i] = 12 + 8*math.Sin(2*math.Pi*t/365+ph) +
			1.5*math.Sin(2*math.Pi*t/24) + r.NormFloat64()*0.3
	}
	return s
}

// Wool mimics wool price series: strongly autocorrelated AR(1) walk.
func Wool(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v = 0.99*v + r.NormFloat64()
		s[i] = v * 5
	}
	return s
}

// Infrasound mimics infrasonic recordings: quiet background with sudden
// oscillatory wave packets.
func Infrasound(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	burst := 0
	freq := 0.2 + r.Float64()*0.2
	for i := range s {
		if burst == 0 && r.Float64() < 0.01 {
			burst = 20 + r.Intn(30)
		}
		v := r.NormFloat64() * 0.1
		if burst > 0 {
			v += 3 * math.Sin(2*math.Pi*freq*float64(i)) * float64(burst) / 40
			burst--
		}
		s[i] = v
	}
	return s
}

// EEG mimics an electroencephalogram: pink-ish noise from stacked AR
// processes.
func EEG(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	var slow, mid, fast float64
	for i := range s {
		slow = 0.99*slow + r.NormFloat64()*0.2
		mid = 0.9*mid + r.NormFloat64()*0.5
		fast = 0.5*fast + r.NormFloat64()
		s[i] = 4*slow + 2*mid + fast
	}
	return s
}

// KoskiEEG mimics the Koski EEG set: dominant alpha-band rhythm plus noise.
func KoskiEEG(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	period := 10 + r.Float64()*3
	ph := r.Float64() * 2 * math.Pi
	ar := 0.0
	for i := range s {
		ar = 0.8*ar + r.NormFloat64()
		s[i] = 5*math.Sin(2*math.Pi*float64(i)/period+ph) + ar
	}
	return s
}

// BuoySensor mimics buoy telemetry: a wandering baseline with spikes.
func BuoySensor(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	v := 0.0
	for i := range s {
		v += r.NormFloat64() * 0.5
		spike := 0.0
		if r.Float64() < 0.02 {
			spike = (r.Float64() - 0.3) * 15
		}
		s[i] = v + spike
	}
	return s
}

// Burst mimics bursty network/astronomy counts: near-zero background with
// clustered bursts.
func Burst(r *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	level := 0.0
	for i := range s {
		if r.Float64() < 0.02 {
			level = r.Float64() * 20
		}
		level *= 0.9
		s[i] = level + math.Abs(r.NormFloat64())*0.2
	}
	return s
}
