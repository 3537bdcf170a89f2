package gateway_test

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

// TestGatewayMetricsConcurrentScrapeConsistency extends the serve-side
// monotonicity race test to the gateway's per-replica counters: infer
// traffic (stateless and session-bound) races /metrics scrapes, every
// monotone family only ever moves forward per scraper, and the quiesced
// totals line up with the work performed across the fleet.
func TestGatewayMetricsConcurrentScrapeConsistency(t *testing.T) {
	c, gc := startCluster(t, 2)
	ctx := ctxT(t)

	const inferWorkers = 4
	const infersPerWorker = 6
	const scrapeWorkers = 3

	monotone := []string{
		"seculator_gateway_requests_total",
		"seculator_gateway_retries_total",
		"seculator_gateway_migrations_total",
		"seculator_gateway_migration_failures_total",
		"seculator_gateway_replica_requests_total",
		"seculator_gateway_replica_errors_total",
		"seculator_gateway_replica_latency_ms_total",
		"seculator_gateway_replica_ejections_total",
		"seculator_gateway_ring_generation",
	}
	perReplica := []string{
		"seculator_gateway_replica_requests_total",
		"seculator_gateway_replica_errors_total",
		"seculator_gateway_replica_latency_ms_total",
	}

	sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
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
				scrape, err := gc.Metrics(ctx)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				names := monotone
				// Per-replica monotonicity, each label set on its own.
				for _, fam := range perReplica {
					for _, rep := range c.Replicas {
						names = append(names, fam+`{replica="`+rep.Name+`"}`)
					}
				}
				for _, name := range names {
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
				req := serve.InferRequest{Network: "Mini", Seed: int64(w*1000 + i)}
				if w == 0 {
					req.Session = sess.SessionID // one worker exercises the session path
				}
				if _, err := gc.Infer(ctx, req); err != nil {
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

	scrape, err := gc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(inferWorkers * infersPerWorker)
	// Every inference produced exactly one gateway 200 (plus the session
	// create and any snapshot piggyback work, all on replica counters).
	if ok200 := metricValue(t, scrape, "seculator_gateway_requests_total", "code", "200"); ok200 < total {
		t.Errorf(`requests_total{code="200"} = %v, want >= %v`, ok200, total)
	}
	// Replica attribution covers the full load: the per-replica forward
	// counters sum to at least the inferences (the create adds one more).
	if fwd := metricValue(t, scrape, "seculator_gateway_replica_requests_total"); fwd < total {
		t.Errorf("replica_requests_total = %v, want >= %v", fwd, total)
	}
	if gen := metricValue(t, scrape, "seculator_gateway_ring_generation"); gen < 1 {
		t.Errorf("ring_generation = %v, want >= 1", gen)
	}
	if vaulted := metricValue(t, scrape, "seculator_gateway_vault_sessions"); vaulted != 1 {
		t.Errorf("vault_sessions = %v, want 1", vaulted)
	}
}
