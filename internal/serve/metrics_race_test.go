package serve_test

import (
	"sync"
	"testing"

	"seculator/internal/metrics"
	"seculator/internal/serve"
)

// metricValue reads family name from a /metrics scrape: the sum of its
// samples carrying the given label pairs. No matching sample fails the test.
func metricValue(t *testing.T, scrape, name string, labels ...string) float64 {
	t.Helper()
	v, ok := metrics.Value(scrape, name, labels...)
	if !ok {
		t.Fatalf("metric %s%q missing from scrape:\n%s", name, labels, scrape)
	}
	return v
}

// TestMetricsConcurrentScrapeConsistency hammers /v1/infer and /metrics
// concurrently (the interesting schedule under -race: renders interleaving
// with counter updates mid-request), asserts every monotone counter only ever
// moves forward across each scraper's observations, and finally checks the
// quiesced counters line up exactly with the work performed.
func TestMetricsConcurrentScrapeConsistency(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := ctxT(t)

	const inferWorkers = 4
	const infersPerWorker = 8
	const scrapeWorkers = 3

	monotone := []string{
		"seculator_serve_requests_total",
		"seculator_serve_infer_ok_total",
		"seculator_serve_infer_latency_ms_total",
		"seculator_serve_infer_queue_ms_total",
		"seculator_serve_tenant_admitted_total",
		"seculator_serve_tenant_shed_total",
		"seculator_serve_tenant_breaches_total",
		"seculator_serve_tenant_breaker_opens_total",
		"seculator_serve_sessions_restored_total",
		"seculator_serve_snapshot_exports_total",
		"seculator_serve_snapshot_restored_total",
		"seculator_serve_snapshot_rejected_total",
		"seculator_serve_residency_hits_total",
		"seculator_serve_residency_misses_total",
		"seculator_serve_residency_reverifies_total",
		"seculator_serve_residency_verify_failures_total",
		"seculator_serve_residency_evictions_total",
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for w := 0; w < scrapeWorkers; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			last := make(map[string]float64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape, err := c.Metrics(ctx)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				for _, name := range monotone {
					// A family with no samples yet (e.g. requests_total
					// before the first response) reads as zero.
					v, _ := metrics.Value(scrape, name)
					if v < last[name] {
						t.Errorf("%s went backwards: %v -> %v", name, last[name], v)
					}
					last[name] = v
				}
			}
		}()
	}

	var infers sync.WaitGroup
	errc := make(chan error, inferWorkers)
	for w := 0; w < inferWorkers; w++ {
		infers.Add(1)
		go func(w int) {
			defer infers.Done()
			for i := 0; i < infersPerWorker; i++ {
				if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(w*1000 + i)}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}

	infers.Wait()
	close(stop)
	scrapers.Wait()
	select {
	case err := <-errc:
		t.Fatalf("infer: %v", err)
	default:
	}

	// Quiesced consistency: everything submitted succeeded, so the counters
	// must line up exactly with the load.
	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(inferWorkers * infersPerWorker)
	if ok := metricValue(t, scrape, "seculator_serve_infer_ok_total"); ok != total {
		t.Errorf("infer_ok_total = %v, want %v", ok, total)
	}
	if ok200 := metricValue(t, scrape, "seculator_serve_requests_total", "code", "200"); ok200 != total {
		t.Errorf(`requests_total{code="200"} = %v, want %v`, ok200, total)
	}
	if lat := metricValue(t, scrape, "seculator_serve_infer_latency_ms_total"); lat < 0 {
		t.Errorf("negative latency sum %v", lat)
	}
	if q := metricValue(t, scrape, "seculator_serve_infer_queue_ms_total"); q < 0 {
		t.Errorf("negative queue sum %v", q)
	}
	// Every request rode the anonymous tenant's fair-share queue.
	if adm := metricValue(t, scrape, "seculator_serve_tenant_admitted_total", "tenant", "default"); adm != total {
		t.Errorf(`tenant_admitted_total{tenant="default"} = %v, want %v`, adm, total)
	}
	if shed, ok := metrics.Value(scrape, "seculator_serve_tenant_shed_total"); ok && shed != 0 {
		t.Errorf("tenant_shed_total = %v on an uncontended run", shed)
	}
	// Every clean inference attaches to the residency cache exactly once:
	// one hit or one miss per request.
	hits := metricValue(t, scrape, "seculator_serve_residency_hits_total")
	misses := metricValue(t, scrape, "seculator_serve_residency_misses_total")
	if hits+misses != total {
		t.Errorf("residency hits %v + misses %v != %v requests", hits, misses, total)
	}
	if rb := metricValue(t, scrape, "seculator_serve_residency_resident_bytes"); rb <= 0 {
		t.Errorf("resident_bytes = %v after %v resident inferences", rb, total)
	}
}
