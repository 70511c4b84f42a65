package retry

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

// largest draws the top of draw's range, so wait returns its ceiling.
func largest(n int64) int64 { return n - 1 }

func TestDelayCapsAndGrows(t *testing.T) {
	want := []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000, 5000}
	for i, w := range want {
		if got := wait(i, 0, largest); got != w*time.Millisecond {
			t.Errorf("wait(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := wait(1, 0, func(int64) int64 { return 0 }); got != 1 {
		t.Errorf("smallest draw waits %v, want 1ns", got)
	}
}

func TestDelayJitterWithinBounds(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		for i := 0; i < 200; i++ {
			if d := Delay(attempt); d <= 0 || d > ceiling(attempt) {
				t.Fatalf("Delay(%d) = %v, out of (0, %v]", attempt, d, ceiling(attempt))
			}
		}
	}
}

// Do sleeps what wait chooses. A server-supplied Retry-After larger than
// the policy's cap is clamped to it: otherwise one hostile or buggy header
// parks the caller far past any backoff the policy allows.
func TestDoCapsRetryAfterAtMaxBackoff(t *testing.T) {
	if got := wait(0, time.Hour, largest); got != maxDelay {
		t.Errorf("an hour-long Retry-After waits %v, want the %v cap", got, maxDelay)
	}
}

// A Retry-After below the cap displaces the drawn delay, even where the
// backoff would wait longer; and Do passes fn's hint on to wait. The hint
// here, 300ms, is above the first retry's 100ms ceiling, so a Do that
// dropped it would return sooner.
func TestDoUsesRetryAfterOverBackoff(t *testing.T) {
	if got := wait(8, 5*time.Millisecond, largest); got != 5*time.Millisecond {
		t.Errorf("a 5ms Retry-After at attempt 8 waits %v", got)
	}
	const hint = 300 * time.Millisecond
	start := time.Now()
	calls := 0
	_ = Do(context.Background(), 2, func() (bool, time.Duration, error) {
		calls++
		return true, hint, errors.New("throttled")
	})
	if calls != 2 {
		t.Fatalf("calls=%d, want 2", calls)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("Do waited %v before retrying, less than the %v Retry-After", elapsed, hint)
	}
}

func TestParseRetryAfter(t *testing.T) {
	httpDate := func(d time.Duration) string {
		return time.Now().Add(d).UTC().Format(http.TimeFormat)
	}
	cases := []struct {
		name   string
		header string // "" means absent
		wantOK bool
		min    time.Duration // inclusive lower bound on the delay
		max    time.Duration // inclusive upper bound on the delay
	}{
		{name: "absent", header: "", wantOK: false},
		{name: "garbage", header: "soon", wantOK: false},
		{name: "delta seconds", header: "2", wantOK: true, min: 2 * time.Second, max: 2 * time.Second},
		{name: "zero delta", header: "0", wantOK: true, min: 0, max: 0},
		// A negative delta is a malformed-but-unambiguous directive to
		// retry now; treating it as unparseable would make the caller
		// fall back to exponential backoff and wait longer than asked.
		{name: "negative delta", header: "-7", wantOK: true, min: 0, max: 0},
		// Near-MaxInt64 delta-seconds must clamp, not overflow into a
		// negative Duration that Do would ignore.
		{name: "huge delta", header: "9223372036854775807", wantOK: true, min: maxRetryAfter, max: maxRetryAfter},
		{name: "day-plus delta", header: "1000000", wantOK: true, min: maxRetryAfter, max: maxRetryAfter},
		{name: "http date future", header: httpDate(3 * time.Second), wantOK: true, min: time.Millisecond, max: 3 * time.Second},
		// A date in the past clamps to zero delay, same as negative delta.
		{name: "http date past", header: httpDate(-time.Hour), wantOK: true, min: 0, max: 0},
		{name: "http date far future", header: httpDate(48 * time.Hour), wantOK: true, min: maxRetryAfter, max: maxRetryAfter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := http.Header{}
			if tc.header != "" {
				h.Set("Retry-After", tc.header)
			}
			d, ok := ParseRetryAfter(h)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v (d = %v)", ok, tc.wantOK, d)
			}
			if !ok {
				return
			}
			if d < tc.min || d > tc.max {
				t.Errorf("delay %v outside [%v, %v]", d, tc.min, tc.max)
			}
		})
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), 5, func() (bool, time.Duration, error) {
		calls++
		if calls < 3 {
			return true, 0, errors.New("transient")
		}
		return false, 0, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil, 3", err, calls)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	calls := 0
	sentinel := errors.New("fatal")
	err := Do(context.Background(), 5, func() (bool, time.Duration, error) {
		calls++
		return false, 0, sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want sentinel after 1 call", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(context.Background(), 3, func() (bool, time.Duration, error) {
		calls++
		return true, 0, errors.New("always")
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 calls", err, calls)
	}
}

func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, 3, func() (bool, time.Duration, error) {
		calls++
		return true, 0, errors.New("transient")
	})
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if calls > 1 {
		t.Fatalf("fn ran %d times under a cancelled context", calls)
	}
}
