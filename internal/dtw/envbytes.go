package dtw

// envBytesPassGo is one pass of the byte envelope's doubling (see
// Workspace.bytesEnvelope) in pure Go: for i in [0, m), up[i] = max(up[i],
// up[i+s]) and lo[i] = min(lo[i], lo[i+s]), reading every i+s before it is
// written. m is a multiple of 16 and m+s at most the buffers' length. It is
// the portable implementation of envBytesPass and the reference the
// assembly kernel is tested against.
func envBytesPassGo(up, lo []byte, s, m int) {
	up, lo = up[:m+s], lo[:m+s] // bounds-check elimination
	for i := 0; i < m; i++ {
		up[i] = max(up[i], up[i+s])
		lo[i] = min(lo[i], lo[i+s])
	}
}

// bytesEnvelope returns the k-envelope of the byte series b, built in the
// workspace: lo[i] and up[i] are the minimum and maximum of b over
// [i-k, i+k] clipped to the series, the values ts.SlidingExtremes gives for
// b read as float64. Both are views of the workspace, valid until its next
// use.
//
// b is copied into two buffers and padded with k bytes on either side that
// change nothing: 0 under max, 255 under min. If m[i] is the extreme of the
// window [i, i+w), a pass m[i] = op(m[i], m[i+s]) with s ≤ w makes it that
// of [i, i+w+s). Passes at s = 1, 2, 4, ... double w up to the largest power
// of two within 2k+1, and one pass at the remainder makes it exactly 2k+1
// (its windows overlap, which min and max do not mind); m[i] then covers
// b[i-k .. i+k]. Each pass computes only the windows later passes still
// read, rounded up to the 16-byte block of envBytesPass (SSE2 on amd64),
// and the buffers' last 16 bytes are slack for that rounding: what lands
// past the windows needed is never read as one. So the envelope costs
// about log2(2k+1) passes of (n+2k)/16 blocks.
func (w *Workspace) bytesEnvelope(b []byte, k int) (lo, up []byte) {
	n := len(b)
	k = min(k, max(n-1, 0)) // a wider window is clipped to the same one
	size := n + 2*k + lbBlockLen
	if cap(w.bup) < size {
		w.bup, w.blo = make([]byte, size), make([]byte, size)
	}
	up, lo = w.bup[:size], w.blo[:size]
	for i := 0; i < k; i++ {
		up[i], lo[i] = 0, 255
		up[k+n+i], lo[k+n+i] = 0, 255
	}
	copy(up[k:], b)
	copy(lo[k:], b)
	need := n + 2*k // windows still read by a later pass
	width, span := 2*k+1, 1
	for ; 2*span <= width; span *= 2 {
		need -= span
		envBytesPass(up, lo, span, (need+lbBlockLen-1)&^(lbBlockLen-1))
	}
	if s := width - span; s > 0 {
		need -= s
		envBytesPass(up, lo, s, (need+lbBlockLen-1)&^(lbBlockLen-1))
	}
	return lo[:n], up[:n]
}
