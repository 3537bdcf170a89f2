package client

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"seculator/internal/serve"
)

// rejectNTimes serves count rejections with the given status/class, then
// succeeds with an empty health body.
func rejectNTimes(t *testing.T, count *atomic.Int64, status int, class string, retryAfterMs int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(serve.ErrorBody{
				Error: "rejected", Class: class, RetryAfterMs: retryAfterMs,
			})
			return
		}
		_ = json.NewEncoder(w).Encode(serve.HealthResponse{Status: "ok"})
	}))
}

func TestRetrySucceedsAfterBackpressure(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(2)
	srv := rejectNTimes(t, &rejects, http.StatusTooManyRequests, serve.ClassQueueFull, 1)
	defer srv.Close()

	c := New(srv.URL, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retries should have absorbed the 429s: %v", err)
	}
	if got := rejects.Load(); got != -1 {
		t.Fatalf("expected exactly one success after 2 rejects, counter=%d", got)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(100)
	srv := rejectNTimes(t, &rejects, http.StatusServiceUnavailable, serve.ClassShutdown, 1)
	defer srv.Close()

	c := New(srv.URL, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	_, err := c.Health(context.Background())
	if !IsShutdown(err) {
		t.Fatalf("want shutdown APIError after exhausting retries, got %v", err)
	}
	if tried := 100 - rejects.Load(); tried != 3 {
		t.Fatalf("want exactly MaxAttempts=3 tries, got %d", tried)
	}
}

func TestNoRetryOnQuarantineOpen(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(100)
	srv := rejectNTimes(t, &rejects, http.StatusUnavailableForLegalReasons, serve.ClassQuarantined, 1000)
	defer srv.Close()

	c := New(srv.URL, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1})
	_, err := c.Health(context.Background())
	if !IsQuarantined(err) {
		t.Fatalf("want quarantined APIError, got %v", err)
	}
	if tried := 100 - rejects.Load(); tried != 1 {
		t.Fatalf("451 quarantine must not be retried, got %d tries", tried)
	}
}

func TestNoRetryOnBreach(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(100)
	srv := rejectNTimes(t, &rejects, http.StatusConflict, serve.ClassFreshness, 0)
	defer srv.Close()

	c := New(srv.URL, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1})
	_, err := c.Health(context.Background())
	if !IsBreach(err) {
		t.Fatalf("want breach APIError, got %v", err)
	}
	if tried := 100 - rejects.Load(); tried != 1 {
		t.Fatalf("409 breach must not be retried, got %d tries", tried)
	}
}

func TestRetryHonorsRetryAfter(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(1)
	srv := rejectNTimes(t, &rejects, http.StatusTooManyRequests, serve.ClassRateLimited, 80)
	defer srv.Close()

	c := New(srv.URL, nil)
	// Tiny base delay: the only way the elapsed time reaches the hint is by
	// honoring Retry-After.
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 1})
	start := time.Now()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retry should succeed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("Retry-After 80ms not honored: elapsed %v", elapsed)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	var rejects atomic.Int64
	rejects.Store(100)
	srv := rejectNTimes(t, &rejects, http.StatusTooManyRequests, serve.ClassQueueFull, 5000)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := New(srv.URL, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Second, Seed: 1})
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("want error after context cancel")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel should cut the backoff short, waited %v", elapsed)
	}
}

func TestRetryTransportErrors(t *testing.T) {
	// A server that is down: transport errors only.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	c := New(url, nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("want transport error")
	} else if errors.As(err, new(*APIError)) {
		t.Fatalf("transport failure should not surface as APIError: %v", err)
	}

	// Default policy: transport errors are not retried.
	r := newRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	if _, ok := r.next(0, errors.New("connection refused")); ok {
		t.Fatal("transport retry must be opt-in")
	}
	r = newRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, RetryTransport: true})
	if _, ok := r.next(0, errors.New("connection refused")); !ok {
		t.Fatal("RetryTransport should retry transport errors")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	r := newRetrier(RetryPolicy{
		MaxAttempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Jitter: 0.0001, Seed: 7,
	})
	var prev time.Duration
	for attempt := 0; attempt < 6; attempt++ {
		d := r.delay(attempt, 0)
		if attempt < 3 && d < prev {
			t.Fatalf("backoff should grow: attempt %d gave %v after %v", attempt, d, prev)
		}
		if d > 81*time.Millisecond {
			t.Fatalf("backoff above cap: %v", d)
		}
		prev = d
	}
}

// An uncapped backoff saturates at the longest wait instead of wrapping:
// 50 ms doubled 38 times passes math.MaxInt64 nanoseconds, and a wrapped
// delay of zero or less would retry at once. Each delay stays at or above
// the doubled base (or the cap) less the jitter, and never above the cap.
func TestBackoffUncappedSaturates(t *testing.T) {
	const base = 50 * time.Millisecond
	r := newRetrier(RetryPolicy{MaxAttempts: 100, BaseDelay: base, MaxDelay: math.MaxInt64, Seed: 1})
	for attempt := 0; attempt < 64; attempt++ {
		d := r.delay(attempt, 0)
		floor := math.Min(float64(base)*math.Pow(2, float64(attempt)), math.MaxInt64) * (1 - r.policy.Jitter)
		if float64(d) < floor*(1-1e-9) {
			t.Fatalf("attempt %d waits %v, want at least %v", attempt, d, time.Duration(floor))
		}
	}
}
