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
