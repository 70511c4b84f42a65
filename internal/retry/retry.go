// Package retry is the one backoff policy shared by the system's HTTP
// callers that retry: the replication follower's pull loop and the
// coordinator's song uploads, which retry each replica of the owning
// group. The coordinator's queries do not retry: a failed replica hands
// the query to the group's next one at once, with no backoff. One
// policy keeps the retry behavior uniform — capped exponential growth with
// full jitter, and a server-supplied Retry-After always wins over the
// computed delay — so a fleet of clients backing off never synchronizes
// into retry waves.
package retry

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Backoff computes capped exponential delays with full jitter. The zero
// value selects the defaults (100ms base, 5s cap, doubling).
type Backoff struct {
	// Base is the delay scale for the first retry (default 100ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s).
	Max time.Duration
	// NoJitter disables randomization — only for tests that need
	// deterministic delays. Production callers must leave it false:
	// full jitter is what prevents thundering-herd retry waves.
	NoJitter bool
}

func (b Backoff) fill() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	return b
}

// Delay returns the wait before retry attempt (0-based): a uniformly
// random duration in (0, min(Base·2^attempt, Max)] — the "full jitter"
// policy, which decorrelates concurrent clients better than equal or
// proportional jitter.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.fill()
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	if b.NoJitter {
		return d
	}
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// maxRetryAfter bounds what a parsed Retry-After header can ask for. A
// delta-seconds value near MaxInt64 would overflow the Duration
// multiplication into a negative delay (which Do would then silently
// ignore, retrying immediately against an overloaded server); anything
// past a day is equally meaningless for a retry hint, so both forms clamp
// here. Do additionally caps the hint at the backoff policy's Max.
const maxRetryAfter = 24 * time.Hour

// ParseRetryAfter extracts a server-requested delay from a response's
// Retry-After header, supporting both the delta-seconds and HTTP-date
// forms. ok is false when the header is absent or unparseable. Delays are
// clamped to [0, maxRetryAfter]: a negative delta-seconds or a date in the
// past is still a well-formed directive — retry now — not a parse failure.
func ParseRetryAfter(h http.Header) (d time.Duration, ok bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0, true
		}
		if secs > int(maxRetryAfter/time.Second) {
			return maxRetryAfter, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			if d > maxRetryAfter {
				return maxRetryAfter, true
			}
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Sleep waits for d or until the context is done, reporting ctx.Err() in
// the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn up to attempts times. fn reports whether its error is worth
// retrying and may suggest a server-requested delay (<= 0 means "use the
// backoff policy"). Do returns nil on the first success, the last error
// once attempts are exhausted or fn says stop, and the context error if
// the deadline expires while backing off.
func Do(ctx context.Context, attempts int, b Backoff, fn func() (retryable bool, retryAfter time.Duration, err error)) error {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		retryable, after, err := fn()
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt == attempts-1 {
			return lastErr
		}
		d := b.Delay(attempt)
		if after > 0 {
			// The server's request displaces the computed backoff, but
			// never beyond the policy's cap: a buggy or hostile
			// Retry-After must not park the caller for hours while its
			// context (and the user) wait.
			d = after
			if max := b.fill().Max; d > max {
				d = max
			}
		}
		if err := Sleep(ctx, d); err != nil {
			return lastErr
		}
	}
	return lastErr
}
