package dtw

import "warping/internal/ts"

// Workspace holds the scratch buffers of the candidate-verification hot
// path: the two dynamic-programming rows of banded DTW, the streamed
// envelope that LB_KeoghEC and LB_Improved's second pass read, the
// projection of the latter, and the envelope of a byte record. A zero
// Workspace is ready to use; buffers grow on demand and are retained, so
// steady-state verification performs no heap allocations.
//
// A Workspace must not be shared between goroutines. Callers that verify
// candidates concurrently should give each worker its own (the index
// package keeps a sync.Pool of them).
type Workspace struct {
	prev, curr []float64
	proj       ts.Series
	ext        ts.Extremes
	bup, blo   []byte
}

// NewWorkspace returns an empty workspace. Equivalent to new(Workspace);
// provided for discoverability.
func NewWorkspace() *Workspace { return new(Workspace) }

// rows returns the two DP rows, grown to width and cleared by the caller.
func (w *Workspace) rows(width int) ([]float64, []float64) {
	if cap(w.prev) < width {
		w.prev = make([]float64, width)
		w.curr = make([]float64, width)
	}
	return w.prev[:width], w.curr[:width]
}

// lbBlockLen is the blocking width of the LB_Keogh kernel: long enough to
// amortize the early-abandon branch and keep four independent accumulator
// chains busy, short enough that an abandoning candidate wastes at most
// one block of work.
const lbBlockLen = 16

// lbBlock16Go accumulates one 16-wide block of the envelope distance in
// pure Go: the portable implementation of lbBlock16 and the reference the
// assembly kernel is tested against. The fixed-size array pointers
// eliminate every bounds check inside the loop, and the four accumulator
// chains break the floating-point add dependency so the loop is
// throughput-bound instead of latency-bound. The compares stay branchy on
// purpose: envelope deviations are locally correlated (a candidate below
// the envelope tends to stay below for a stretch), so the branches predict
// well — measured faster than a branchless form built on the builtin
// float max, whose NaN/±0 semantics cost more than the rare misprediction
// saves. (The amd64 assembly version is branchless via MAXPD, which has
// none of that overhead.)
func lbBlock16Go(x, lo, up *[lbBlockLen]float64) float64 {
	var s0, s1, s2, s3 float64
	for j := 0; j < lbBlockLen; j += 4 {
		v0, v1, v2, v3 := x[j], x[j+1], x[j+2], x[j+3]
		d0 := v0 - up[j]
		if t := lo[j] - v0; t > d0 {
			d0 = t
		}
		d1 := v1 - up[j+1]
		if t := lo[j+1] - v1; t > d1 {
			d1 = t
		}
		d2 := v2 - up[j+2]
		if t := lo[j+2] - v2; t > d2 {
			d2 = t
		}
		d3 := v3 - up[j+3]
		if t := lo[j+3] - v3; t > d3 {
			d3 = t
		}
		if d0 > 0 {
			s0 += d0 * d0
		}
		if d1 > 0 {
			s1 += d1 * d1
		}
		if d2 > 0 {
			s2 += d2 * d2
		}
		if d3 > 0 {
			s3 += d3 * d3
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// lbBytes16Go is lbBlock16Go over the series x_j = float64(b_j) + base: the
// portable implementation of lbBytes16 and the reference the assembly
// kernel is tested against. It widens the block and hands it to
// lbBlock16Go, so it is that kernel's sum over those values by
// construction.
func lbBytes16Go(b *[lbBlockLen]byte, base float64, lo, up *[lbBlockLen]float64) float64 {
	var x [lbBlockLen]float64
	for j, v := range b {
		x[j] = float64(v) + base
	}
	return lbBlock16Go(&x, lo, up)
}

// SquaredDistToEnvelopeWithin is SquaredDistToEnvelope with early
// abandoning: it returns (d, true) with the exact squared distance when
// d <= cutoff2, and (v, false) with some partial sum v > cutoff2 as soon as
// the accumulating distance exceeds the cutoff. A negative cutoff2 abandons
// immediately.
//
// The distance runs in 16-wide blocks (see lbBlock16; SSE2 assembly on
// amd64) with the abandon check hoisted to block granularity, plus a
// scalar tail with per-element abandoning for the last n mod 16 elements.
// With the block kernel at well under a nanosecond per element, block
// granularity beats any scalar prologue even for candidates that abandon
// within the first few elements — an abandoning candidate wastes at most
// one block of work. The abandon decision and the ok==true value are
// unchanged by the blocking; only the partial sum returned on a
// block-granular abandon may overshoot the cutoff by up to one block's
// contribution.
func SquaredDistToEnvelopeWithin(x ts.Series, e Envelope, cutoff2 float64) (float64, bool) {
	if len(x) != e.Len() {
		panic("dtw: series length vs envelope length mismatch")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	n := len(x)
	lo, up := e.Lower[:n], e.Upper[:n] // bounds-check elimination
	var sum float64
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		sum += lbBlock16(
			(*[lbBlockLen]float64)(x[i:]),
			(*[lbBlockLen]float64)(lo[i:]),
			(*[lbBlockLen]float64)(up[i:]),
		)
		if sum > cutoff2 {
			return sum, false
		}
	}
	return envelopeTail(x[i:], lo[i:], up[i:], sum, cutoff2)
}

// SquaredBytesToEnvelopeWithin is SquaredDistToEnvelopeWithin over the
// series x_i = float64(b[i]) + base, read from its bytes without being
// written out: a series of integers off one float64 offset — a melody's
// pitches in normal form — kept at a byte a point. It runs in the same
// 16-wide blocks (lbBytes16; SSE2 assembly on amd64) with the same abandon
// points and scalar tail, and each block widens its bytes to exactly those
// x_i, so every sum and every abandon decision is Float64bits-equal to
// SquaredDistToEnvelopeWithin(x, e, cutoff2).
func SquaredBytesToEnvelopeWithin(b []byte, base float64, e Envelope, cutoff2 float64) (float64, bool) {
	if len(b) != e.Len() {
		panic("dtw: series length vs envelope length mismatch")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	n := len(b)
	lo, up := e.Lower[:n], e.Upper[:n] // bounds-check elimination
	var sum float64
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		sum += lbBytes16(
			(*[lbBlockLen]byte)(b[i:]),
			base,
			(*[lbBlockLen]float64)(lo[i:]),
			(*[lbBlockLen]float64)(up[i:]),
		)
		if sum > cutoff2 {
			return sum, false
		}
	}
	var tail [lbBlockLen]float64
	x := tail[:n-i]
	for j := range x {
		x[j] = float64(b[i+j]) + base
	}
	return envelopeTail(x, lo[i:], up[i:], sum, cutoff2)
}

// envelopeTail adds the squared distance from the last n mod 16 elements
// of a series to their envelope bounds onto sum, abandoning per element
// once it exceeds cutoff2: the scalar tail of the blocked loops.
func envelopeTail(x, lo, up ts.Series, sum, cutoff2 float64) (float64, bool) {
	lo, up = lo[:len(x)], up[:len(x)]
	for i, v := range x {
		switch {
		case v > up[i]:
			d := v - up[i]
			sum += d * d
		case v < lo[i]:
			d := lo[i] - v
			sum += d * d
		default:
			continue
		}
		if sum > cutoff2 {
			return sum, false
		}
	}
	return sum, true
}

// projBlock16Go clamps one 16-wide block of a candidate into an envelope in
// pure Go: the portable implementation of projBlock16 and the reference the
// assembly kernel is tested against. The fixed-size array pointers
// eliminate every bounds check; the branchy clamp predicts well for the
// same reason lbBlock16Go's compares do — envelope deviations are locally
// correlated. (The amd64 assembly version is branchless via MINPD/MAXPD.)
func projBlock16Go(dst, x, lo, up *[lbBlockLen]float64) {
	for j := 0; j < lbBlockLen; j++ {
		v := x[j]
		if v > up[j] {
			v = up[j]
		} else if v < lo[j] {
			v = lo[j]
		}
		dst[j] = v
	}
}

// ProjectOntoEnvelopeInto writes the elementwise projection of x onto the
// envelope e — each sample clamped into [e.Lower[i], e.Upper[i]] — into
// dst, growing it as needed, and returns it. This is the h(x) of Lemire's
// LB_Improved: the closest series to x that fits inside the envelope. Runs
// in 16-wide blocks (see projBlock16; SSE2 assembly on amd64) plus a scalar
// tail.
func ProjectOntoEnvelopeInto(dst, x ts.Series, e Envelope) ts.Series {
	if len(x) != e.Len() {
		panic("dtw: series length vs envelope length mismatch")
	}
	n := len(x)
	if cap(dst) < n {
		dst = make(ts.Series, n)
	}
	dst = dst[:n]
	lo, up := e.Lower[:n], e.Upper[:n] // bounds-check elimination
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		projBlock16(
			(*[lbBlockLen]float64)(dst[i:]),
			(*[lbBlockLen]float64)(x[i:]),
			(*[lbBlockLen]float64)(lo[i:]),
			(*[lbBlockLen]float64)(up[i:]),
		)
	}
	for ; i < n; i++ {
		v := x[i]
		if v > up[i] {
			v = up[i]
		} else if v < lo[i] {
			v = lo[i]
		}
		dst[i] = v
	}
	return dst
}

// SquaredLBImprovedWithin completes Lemire's LB_Improved bound given the
// already-computed forward term: fwd must be the squared LB_Keogh distance
// from candidate x to the query envelope env (with fwd <= cutoff2). The
// second pass projects x onto env and accumulates the squared distance from
// q to the k-envelope of that projection with early abandoning against the
// remaining budget cutoff2-fwd. Since every warping path from q to x is at
// least as long as the forward deviation plus the deviation of q from the
// projected candidate's envelope (Lemire, "Faster Retrieval with a Two-Pass
// Dynamic-Time-Warping Lower Bound"), the sum lower-bounds the squared
// banded DTW distance; it dominates LB_Keogh because the second term is
// nonnegative. Returns (d, true) with the exact bound when d <= cutoff2,
// and (fwd+v, false) with some v > cutoff2-fwd on abandon (the sum may
// round to cutoff2).
//
// The projection's envelope is streamed (see squaredToEnvelopeOfWithin), so
// every bound and every abandon decision equals SquaredDistToEnvelopeWithin(
// q, NewEnvelope(projection, k), cutoff2-fwd) plus fwd, bit for bit.
func (w *Workspace) SquaredLBImprovedWithin(q, x ts.Series, env Envelope, k int, fwd, cutoff2 float64) (float64, bool) {
	n := len(x)
	if n != env.Len() || len(q) != n {
		panic("dtw: series length vs envelope length mismatch")
	}
	budget := cutoff2 - fwd
	if budget < 0 {
		return fwd + (budget + 1), false
	}
	w.proj = ProjectOntoEnvelopeInto(w.proj, x, env)
	sum, ok := w.squaredToEnvelopeOfWithin(q, w.proj, k, budget)
	return fwd + sum, ok
}

// SquaredLBKeoghECWithin is LB_KeoghEC with early abandoning: the squared
// distance from the query q to the k-envelope of the candidate x, the
// reverse of LB_Keogh's roles (Rakthanmanon et al., "Searching and Mining
// Trillions of Time Series Subsequences under DTW"). The band is symmetric,
// so any warping path within it matches q_i to some x_j with |i-j| <= k,
// which lies in x's envelope at i: the sum lower-bounds the squared banded
// DTW distance as LB_Keogh does. Neither of the two dominates the other.
// Returns (d, true) with the exact bound when d <= cutoff2, and (v, false)
// with some partial sum v > cutoff2 on abandon; a negative cutoff2 abandons
// at once. The envelope is streamed (see squaredToEnvelopeOfWithin), so
// the result equals SquaredDistToEnvelopeWithin(q, NewEnvelope(x, k),
// cutoff2) bit for bit.
func (w *Workspace) SquaredLBKeoghECWithin(q, x ts.Series, k int, cutoff2 float64) (float64, bool) {
	if len(q) != len(x) {
		panic("dtw: series length vs envelope length mismatch")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	return w.squaredToEnvelopeOfWithin(q, x, k, cutoff2)
}

// SquaredLBKeoghECBytesWithin is SquaredLBKeoghECWithin over the candidate
// x_i = float64(b[i]) + base, a byte record (see
// SquaredBytesToEnvelopeWithin), read without being decoded. The envelope
// is built on the bytes (Workspace.bytesEnvelope) and widened a block at a
// time. Adding base in float64 is monotone, so float64(max b) + base is the
// maximum of the float64(b_j) + base and likewise the minimum: the widened
// byte envelope is NewEnvelope(x, k) exactly, and every sum and every
// abandon decision is Float64bits-equal to SquaredLBKeoghECWithin(q, x, k,
// cutoff2).
func (w *Workspace) SquaredLBKeoghECBytesWithin(q ts.Series, b []byte, base float64, k int, cutoff2 float64) (float64, bool) {
	n := len(b)
	if len(q) != n {
		panic("dtw: series length vs envelope length mismatch")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	blo, bup := w.bytesEnvelope(b, k)
	var lo, up [lbBlockLen]float64
	var sum float64
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		l, u := (*[lbBlockLen]byte)(blo[i:]), (*[lbBlockLen]byte)(bup[i:])
		for j := range lo {
			lo[j], up[j] = float64(l[j])+base, float64(u[j])+base
		}
		sum += lbBlock16((*[lbBlockLen]float64)(q[i:]), &lo, &up)
		if sum > cutoff2 {
			return sum, false
		}
	}
	for j := range n - i {
		lo[j], up[j] = float64(blo[i+j])+base, float64(bup[i+j])+base
	}
	return envelopeTail(q[i:], lo[:], up[:], sum, cutoff2)
}

// squaredToEnvelopeOfWithin is SquaredDistToEnvelopeWithin(q,
// NewEnvelope(s, k), cutoff2) for a non-negative cutoff2, with the
// envelope streamed (ts.Extremes): each 16-wide block of it is built just
// before the lbBlock16 call that reads it, so a candidate that abandons in
// block b never builds blocks b+1 onwards. The envelope values are those of
// ts.SlidingExtremes and the block sums are added in
// SquaredDistToEnvelopeWithin's order, so the result is that call's, bit
// for bit.
func (w *Workspace) squaredToEnvelopeOfWithin(q, s ts.Series, k int, cutoff2 float64) (float64, bool) {
	n := len(s)
	w.ext.Reset(s, k)
	var lo, up [lbBlockLen]float64
	var sum float64
	i := 0
	for ; i+lbBlockLen <= n; i += lbBlockLen {
		w.ext.Fill(lo[:], up[:], i)
		sum += lbBlock16((*[lbBlockLen]float64)(q[i:]), &lo, &up)
		if sum > cutoff2 {
			return sum, false
		}
	}
	w.ext.Fill(lo[:n-i], up[:n-i], i)
	return envelopeTail(q[i:], lo[:], up[:], sum, cutoff2)
}

// SquaredBandedWithin computes the squared k-Local DTW distance with early
// abandoning: as soon as every cell of a dynamic-programming row exceeds
// the squared cutoff, the computation stops, because DTW cell values are
// non-decreasing along any warping path. The DP rows are the workspace's,
// so a call allocates nothing.
//
// It returns (d, true) with the exact squared distance when d <= cutoff2,
// and (v, false) with some value > cutoff2 otherwise. With a range query's
// epsilon^2 as the cutoff this skips most of the DP work for non-matching
// candidates — the refinement-step optimization of the UCR-suite lineage.
func (w *Workspace) SquaredBandedWithin(x, y ts.Series, k int, cutoff2 float64) (float64, bool) {
	n := len(x)
	if n == 0 {
		panic("dtw: empty series")
	}
	if len(y) != n {
		panic("dtw: SquaredBandedWithin needs equal lengths")
	}
	if k < 0 {
		panic("dtw: negative band radius")
	}
	if cutoff2 < 0 {
		return cutoff2 + 1, false
	}
	if k == 0 {
		// Euclidean with early abandon.
		var sum float64
		for i := range x {
			d := x[i] - y[i]
			sum += d * d
			if sum > cutoff2 {
				return sum, false
			}
		}
		return sum, true
	}
	width := 2*k + 1
	prev, curr := w.rows(width)

	// Row i=1 is a running sum: dp(1,j) = dp(1,j-1) + d². Cell (1,1) sits
	// at slot k; the row minimum is that first cell since the sum only
	// grows. No other row reads outside the band cells written here: for a
	// guarded read from row i-1, the source column provably lies inside
	// [max(1,i-1-k), min(n,i-1+k)], so no clearing pass is needed between
	// rows (and dirty buffers from earlier calls are never observed).
	hi := 1 + k
	if hi > n {
		hi = n
	}
	run := 0.0
	for j := 1; j <= hi; j++ {
		d := x[0] - y[j-1]
		run += d * d
		curr[j-1+k] = run
	}
	if curr[k] > cutoff2 {
		return curr[k], false
	}
	prev, curr = curr, prev

	// Band-boundary cells are peeled out of the inner loop: the first cell
	// of a row has no left neighbor (and at j==1 no diagonal either), the
	// last cell at slot 2k has no "above" neighbor, and every interior cell
	// has all three — min(diagonal prev[s], above prev[s+1], left
	// curr[s-1]) with no band-membership branches. Every guarded read in
	// the seed formulation hit a written, finite cell, so no infinity
	// checks are needed anywhere.
	k2 := 2 * k
	for i := 2; i <= n; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi = i + k
		if hi > n {
			hi = n
		}
		xi := x[i-1]
		s := lo - i + k

		// First cell: no left neighbor; at j==1 the diagonal dp(i-1,0)
		// does not exist either.
		best := prev[s+1] // above: always in row i-1's band at the first cell
		if lo > 1 {
			if v := prev[s]; v < best {
				best = v
			}
		}
		d := xi - y[lo-1]
		c := d*d + best
		curr[s] = c
		rowMin := c

		// The last cell sits at slot 2k exactly when hi == i+k (unclamped);
		// its "above" dp(i-1, i+k) is outside row i-1's band.
		hiIn := hi
		if hi-i+k == k2 {
			hiIn = hi - 1
		}
		for j := lo + 1; j <= hiIn; j++ {
			s++
			best := prev[s]
			if v := prev[s+1]; v < best {
				best = v
			}
			if v := curr[s-1]; v < best {
				best = v
			}
			d := xi - y[j-1]
			c := d*d + best
			curr[s] = c
			if c < rowMin {
				rowMin = c
			}
		}
		if hiIn != hi && hi > lo {
			s++
			best := prev[s] // diagonal; no above at slot 2k
			if v := curr[s-1]; v < best {
				best = v
			}
			d := xi - y[hi-1]
			c := d*d + best
			curr[s] = c
			if c < rowMin {
				rowMin = c
			}
		}
		if rowMin > cutoff2 {
			return rowMin, false
		}
		prev, curr = curr, prev
	}
	d := prev[k]
	return d, d <= cutoff2
}
