package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestProbeSlotFreedWhenRateLimited: a half-open breaker grants its single
// probe slot to a request the tenant's rate bucket then refuses. The slot
// must free with that 429 — the request never executed, so no Record ever
// arrives for it — or every later request of the tenant is refused as
// "half-open" forever.
func TestProbeSlotFreedWhenRateLimited(t *testing.T) {
	s, err := New(Options{
		Tenants:    []TenantConfig{{Key: "k", Name: "t", RateRPS: 5, Burst: 2}},
		Quarantine: QuarantineConfig{OpenAfter: 1, OpenFor: 20 * time.Millisecond, ProbeSuccesses: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	now := time.Unix(1_000_000, 0)
	s.tenants.now = func() time.Time { return now }

	infer := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{"network":"Mini","seed":1}`))
		req.Header.Set("X-API-Key", "k")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	// Drain the rate bucket, then breach: the breaker opens for 20 ms.
	for i := 0; i < 2; i++ {
		if code := infer(); code != http.StatusOK {
			t.Fatalf("clean request %d: %d", i, code)
		}
	}
	br := s.tenants.All()[0].Breaker()
	if !br.Record(true, false, now) {
		t.Fatal("OpenAfter=1 breaker did not open on its first breach")
	}

	// Hold expired, bucket still empty (30 ms refills 0.15 of a token): the
	// request is granted the probe and rate-limited.
	now = now.Add(30 * time.Millisecond)
	if code := infer(); code != http.StatusTooManyRequests {
		t.Fatalf("probe against an empty bucket: %d, want 429", code)
	}
	// Bucket refilled: the next request must get the probe slot, run clean
	// and close the breaker.
	now = now.Add(time.Second)
	if code := infer(); code != http.StatusOK {
		t.Fatalf("request after the rate-limited probe: %d, want 200 (probe slot leaked)", code)
	}
	if st := br.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after a clean probe, want closed", st)
	}
}

// TestProbeDeadlineDoesNotCloseBreaker: the half-open probe is a request
// whose client-chosen deadline expires before the inference completes. It
// never finished an inference, so it must not count as a clean probe — or a
// quarantined tenant closes its own breaker with 1 ms timeouts. The slot
// still frees: the next, clean request is the probe that closes it.
func TestProbeDeadlineDoesNotCloseBreaker(t *testing.T) {
	s, err := New(Options{
		Tenants:    []TenantConfig{{Key: "k", Name: "t"}},
		Quarantine: QuarantineConfig{OpenAfter: 1, OpenFor: 20 * time.Millisecond, ProbeSuccesses: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	now := time.Unix(1_000_000, 0)
	s.tenants.now = func() time.Time { return now }

	infer := func(body string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
		req.Header.Set("X-API-Key", "k")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	br := s.tenants.All()[0].Breaker()
	if !br.Record(true, false, now) {
		t.Fatal("OpenAfter=1 breaker did not open on its first breach")
	}
	now = now.Add(30 * time.Millisecond) // hold expired: next request probes

	if code := infer(`{"network":"MobileNet","seed":1,"timeout_ms":1}`); code != http.StatusServiceUnavailable {
		t.Fatalf("probe with a 1 ms deadline: %d, want 503", code)
	}
	if st := br.State(); st != BreakerHalfOpen {
		t.Fatalf("breaker %v after a probe that never completed, want half-open", st)
	}
	if code := infer(`{"network":"Mini","seed":1}`); code != http.StatusOK {
		t.Fatalf("request after the expired probe: %d, want 200 (probe slot leaked)", code)
	}
	if st := br.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after a clean probe, want closed", st)
	}
}
