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

// The backoff policy: the wait before retry attempt n (0-based) is drawn
// uniformly from (0, min(baseDelay·2^n, maxDelay)] — "full jitter", which
// decorrelates concurrent clients better than equal or proportional
// jitter.
const (
	baseDelay = 100 * time.Millisecond
	maxDelay  = 5 * time.Second
)

// Delay returns a random wait before retry attempt (0-based) under the
// backoff policy.
func Delay(attempt int) time.Duration { return wait(attempt, 0, rand.Int63n) }

// wait chooses the wait before retry attempt: the server's requested delay
// after, when positive, capped at maxDelay — a buggy or hostile Retry-After
// must not park the caller for hours while its context (and the user)
// wait — and otherwise 1 + draw(ceiling(attempt)) nanoseconds, draw(n)
// being uniform in [0, n).
func wait(attempt int, after time.Duration, draw func(n int64) int64) time.Duration {
	if after > 0 {
		return min(after, maxDelay)
	}
	return time.Duration(1 + draw(int64(ceiling(attempt))))
}

// ceiling is the policy's bound on the wait before retry attempt:
// min(baseDelay·2^attempt, maxDelay).
func ceiling(attempt int) time.Duration {
	d := baseDelay
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// maxRetryAfter bounds what a parsed Retry-After header can ask for. A
// delta-seconds value near MaxInt64 would overflow the Duration
// multiplication into a negative delay (which Do would then silently
// ignore, retrying immediately against an overloaded server); anything
// past a day is equally meaningless for a retry hint, so both forms clamp
// here. Do additionally caps the hint at maxDelay.
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

// Do runs fn up to attempts times, sleeping between tries as wait
// chooses. fn reports whether its error is worth retrying and may suggest
// a server-requested delay (<= 0 means "use the backoff policy"). Do
// returns nil on the first success, the last error once attempts are
// exhausted or fn says stop, and the context error if the deadline expires
// while backing off.
func Do(ctx context.Context, attempts int, fn func() (retryable bool, retryAfter time.Duration, err error)) error {
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
		if err := Sleep(ctx, wait(attempt, after, rand.Int63n)); err != nil {
			return lastErr
		}
	}
	return lastErr
}
