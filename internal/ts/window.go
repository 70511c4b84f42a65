package ts

// SlidingExtremes returns, for each index i, the minimum and the maximum
// of s over the window [i-k, i+k] clipped to the series bounds. It runs in
// O(n) for any k (see Extremes). k must be >= 0; k = 0 returns copies of s.
func SlidingExtremes(s Series, k int) (lo, up Series) {
	var e Extremes
	e.Reset(s, k)
	lo, up = make(Series, len(s)), make(Series, len(s))
	e.Fill(lo, up, 0)
	return lo, up
}

// Extremes streams the centred sliding-window minimum and maximum of one
// series, the windows [i-k, i+k] clipped to the series bounds, with the van
// Herk/Gil-Werman algorithm: cut the positions into segments of 2k+1 (the
// first one k+1 long, as if k positions were padded on the left), keep each
// segment's running extreme from its start (g) and towards its end (h), and
// a window [a, a+2k], which meets at most two segments, is min(h[a],
// g[a+2k]); one clipped at either end needs no padding. Every step is a
// builtin min or max, so the scans have no data-dependent branch, and the
// cost per position does not depend on k. Min and max of the same values are
// exact in any order: each result is a sample of the window, == to what any
// other exact method returns.
//
// Fill scans only the segments its windows reach, so a caller that stops
// reading early — an early-abandoning lower bound — never pays for the rest.
// Buffers are retained across Reset, so steady-state use allocates nothing.
// An Extremes must not be used concurrently.
type Extremes struct {
	s          Series
	k          int
	next       int // first position of the first segment not yet scanned
	last       int // first position of the segment holding s[n-1]
	buf        []float64
	gmin, gmax []float64 // running extreme from the segment's start
	hmin, hmax []float64 // running extreme towards the segment's end
}

// Reset starts a stream over s with window radius k; s must not change
// until the last Fill. k must be >= 0.
func (e *Extremes) Reset(s Series, k int) {
	if k < 0 {
		panic("ts: negative window radius")
	}
	n := len(s)
	k = min(k, max(n-1, 0)) // a wider window is clipped to the same one
	if cap(e.buf) < 4*n {
		e.buf = make([]float64, 4*n)
	}
	b := e.buf[:4*n]
	e.gmin, e.gmax, e.hmin, e.hmax = b[:n:n], b[n:2*n:2*n], b[2*n:3*n:3*n], b[3*n:]
	e.s, e.k, e.next, e.last = s, k, 0, 0
	if n-1 > k {
		w := 2*k + 1
		e.last = k + 1 + (n-1-(k+1))/w*w
	}
}

// Fill writes the minimum and maximum of the windows centred on positions
// i, i+1, ..., i+len(lo)-1 into lo and up, which must have equal lengths.
func (e *Extremes) Fill(lo, up Series, i int) {
	up = up[:len(lo)]
	n, k := len(e.s), e.k
	for need := min(i+len(lo)-1+k, n-1); e.next <= need; {
		e.scan()
	}
	hmin, hmax, gmin, gmax := e.hmin, e.hmax, e.gmin, e.gmax
	// A window clipped at 0 starts in the first segment, which starts at 0
	// and ends at k.
	j, end := 0, min(len(lo), n-k-i) // windows [.., j+i+k] end inside s
	for ; j < end && i+j < k; j++ {
		lo[j], up[j] = min(hmin[0], gmin[i+j+k]), max(hmax[0], gmax[i+j+k])
	}
	// A full window [a, a+2k] spans the tail of the segment holding a and
	// the head of the next one, or is one segment exactly.
	if j < end {
		a, lo, up := i+j-k, lo[j:end], up[j:end]
		hlo, hhi := hmin[a:][:len(lo)], hmax[a:][:len(lo)]
		glo, ghi := gmin[a+2*k:][:len(lo)], gmax[a+2*k:][:len(lo)]
		for t := range lo {
			lo[t], up[t] = min(hlo[t], glo[t]), max(hhi[t], ghi[t])
		}
		j = end
	}
	// A window clipped at n-1 is h alone when it starts in the last
	// segment, else that h and the whole last segment, g[n-1].
	for ; j < len(lo); j++ {
		a := max(i+j-k, 0)
		l, u := hmin[a], hmax[a]
		if a < e.last {
			l, u = min(l, gmin[n-1]), max(u, gmax[n-1])
		}
		lo[j], up[j] = l, u
	}
}

// scan computes g and h over the next segment. The forward and backward
// scans share one loop: four independent min/max chains instead of two
// after one another, since each chain is bound by the latency of its
// builtin min or max.
func (e *Extremes) scan() {
	f := e.next
	end := min(f+2*e.k, len(e.s)-1)
	if f == 0 {
		end = e.k
	}
	s := e.s[f : end+1]
	n := len(s)
	gmin, gmax := e.gmin[f : end+1][:n], e.gmax[f : end+1][:n]
	hmin, hmax := e.hmin[f : end+1][:n], e.hmax[f : end+1][:n]
	glo, ghi := s[0], s[0]
	hlo, hhi := s[n-1], s[n-1]
	for t, v := range s {
		glo, ghi = min(glo, v), max(ghi, v)
		gmin[t], gmax[t] = glo, ghi
		u := n - 1 - t
		hlo, hhi = min(hlo, s[u]), max(hhi, s[u])
		hmin[u], hmax[u] = hlo, hhi
	}
	e.next = end + 1
}

// MovingAverage returns the centered moving average of s with window radius
// k (window [i-k, i+k] clipped to bounds). It runs in O(n).
func MovingAverage(s Series, k int) Series {
	n := len(s)
	out := make(Series, n)
	if n == 0 {
		return out
	}
	if k < 0 {
		panic("ts: negative window radius")
	}
	// Prefix sums for O(1) range sums.
	prefix := make([]float64, n+1)
	for i, v := range s {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		hi := i + k
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}
