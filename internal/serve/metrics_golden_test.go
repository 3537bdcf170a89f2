package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/workload"
)

// TestMetricsGoldenScrape drives a fixed script of events through a real
// server's counter set — statuses, latency sums, sessions created,
// exported, restored, rejected and evicted, two tenants registered out of
// name order with sheds, breaches and one open breaker, residency traffic,
// the simulation cache — and compares GET /metrics byte for byte with
// testdata/metrics.golden. The golden file was rendered by the hand-written
// Metrics.Render of the commit before the shared registry, from this same
// script (bound to that commit's recording methods), so it pins family
// order, label order and sorting, and number formats across the rewrite.
func TestMetricsGoldenScrape(t *testing.T) {
	runner.ResetCache()
	s, err := New(Options{
		Tenants:    []TenantConfig{{Key: "k-zed", Name: "zed"}, {Key: "k-amy", Name: "amy"}},
		Quarantine: QuarantineConfig{ThrottleAfter: 1, OpenAfter: 2, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	now := time.Unix(1_000_000, 0)

	// The script's verbs, bound to this commit's counters.
	m := s.metrics
	request := m.Request
	inference := func(total, queued time.Duration) {
		m.inferOK.Inc()
		m.latency.Add(int64(total))
		m.queue.Add(int64(queued))
	}
	admitted := func(tenant string) { m.tenantAdmitted.Inc(tenant) }
	shed := func(tenant, reason string) { m.tenantShed.Inc(tenant, reason) }
	breach := func(tenant string) { m.tenantBreaches.Inc(tenant) }
	residencyHit := m.residencyHits.Inc
	residencyMiss := m.residencyMisses.Inc
	residencyReverify := func(ok bool) {
		m.residencyReverifies.Inc()
		if !ok {
			m.residencyVerifyFails.Inc()
		}
	}
	residencyEviction := m.residencyEvictions.Inc
	residencyBytes := m.residentBytes.Add

	// ---- the script (identical on both sides of the rewrite) ----
	for _, code := range []int{200, 400, 200, 409, 429, 200, 451, 409, 503} {
		request(code)
	}
	inference(1500*time.Microsecond, 250*time.Microsecond)
	inference(2250*time.Microsecond, 0)
	inference(400*time.Nanosecond, 100*time.Nanosecond)

	var ids []string
	for _, tenant := range []string{"amy", "amy", "zed", "amy"} {
		resp, err := s.sessions.Create(tenant, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.SessionID)
	}
	s.sessions.Commit(ids[0], 6, protect.RegisterState{}, true, 42)
	env, err := s.SnapshotSession(ids[0], "amy")
	if err != nil {
		t.Fatal(err)
	}
	s.sessions.Evict(ids[0], "", EvictMigrate)
	if _, err := s.RestoreSession(env, "amy"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreSession(env, "amy"); err == nil { // duplicate id
		t.Fatal("restoring a live session succeeded")
	}
	forged := env
	forged.MAC = "0" + env.MAC[1:]
	if forged.MAC == env.MAC {
		forged.MAC = "1" + env.MAC[1:]
	}
	if _, err := s.RestoreSession(forged, "amy"); err == nil {
		t.Fatal("forged envelope restored")
	}
	s.sessions.Evict(ids[1], "amy", EvictClose)
	s.sessions.Evict(ids[2], "zed", EvictBreach)

	for _, tenant := range []string{"amy", "zed", "amy", "amy"} {
		admitted(tenant)
	}
	shed("zed", ShedRate)
	shed("zed", ShedQuarantine)
	shed("amy", ShedQueue)
	shed("zed", ShedQuarantine)
	for _, tn := range s.tenants.All() {
		if tn.Name() == "zed" {
			breach("zed")
			tn.Breaker().Record(true, false, now)
			breach("zed")
			tn.Breaker().Record(true, false, now)
		}
	}

	for i := 0; i < 5; i++ {
		residencyHit()
	}
	residencyMiss()
	residencyMiss()
	residencyReverify(true)
	residencyReverify(false)
	residencyEviction()
	residencyBytes(4096)
	residencyBytes(1024)
	residencyBytes(-1024)

	for i := 0; i < 2; i++ { // one miss, one hit, one entry
		if _, err := runner.RunCached(context.Background(), workload.Mini(), protect.Seculator, s.cfg); err != nil {
			t.Fatal(err)
		}
	}
	// ---- end of script ----

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("scrape differs from testdata/metrics.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
