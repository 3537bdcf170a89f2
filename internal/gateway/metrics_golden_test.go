package gateway

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// quietGateway builds a gateway over replicas that are never contacted: no
// probe fires within the test and nothing is forwarded, so /metrics shows
// exactly what the test records.
func quietGateway(t *testing.T, names ...string) (*Gateway, Config) {
	t.Helper()
	var cfg Config
	for _, n := range names {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{Name: n, URL: "http://127.0.0.1:1/" + n})
	}
	g, err := New(Options{Config: cfg, Health: HealthConfig{ProbeInterval: time.Hour, EjectFor: time.Hour, FailAfter: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, cfg
}

func scrape(g *Gateway) string {
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestGatewayMetricsGoldenScrape drives a fixed script of events through a
// real gateway's counter set — statuses, retries, migrations by reason,
// per-replica forwards (one replica with errors, one idle, one that left
// the ring), a reload, vaulted sessions, and an ejected, a draining and a
// loaded replica — and compares GET /metrics byte for byte with
// testdata/metrics.golden. The golden file was rendered by the hand-written
// Metrics.Render of the commit before the shared registry, from this same
// script (bound to that commit's recording methods). The latency samples
// are ones on which that commit's quantile formula and nearest-rank agree;
// TestGatewayReplicaQuantilesNearestRank covers where they did not.
func TestGatewayMetricsGoldenScrape(t *testing.T) {
	g, cfg := quietGateway(t, "r-b", "r-a", "r-c")

	// The script's verbs, bound to this commit's counters.
	m := g.metrics
	request := m.Request
	forward := m.Forward
	retry := m.retries.Inc
	migration := func(reason string) { m.migrations.Inc(reason) }
	migrationFailure := m.migrationFailures.Inc

	// ---- the script (identical on both sides of the rewrite) ----
	if _, err := g.Reload(cfg); err != nil { // ring generation 2
		t.Fatal(err)
	}
	for _, code := range []int{200, 201, 502, 200, 400, 200, 404, 502, 200} {
		request(code)
	}
	forward("r-a", 3*time.Millisecond, true)
	forward("r-a", 0, false)
	forward("r-b", 2500*time.Microsecond, true)
	forward("r-a", time.Millisecond, true)
	forward("r-old", 7*time.Millisecond+400*time.Nanosecond, true)
	forward("r-a", 3*time.Millisecond, true)
	retry()
	retry()
	for _, reason := range []string{MigratePlace, MigrateFailover, MigratePlace, MigrateDrain, MigrateRebalance, MigrateDrain, MigratePlace} {
		migration(reason)
	}
	migrationFailure()
	migrationFailure()

	g.vault.put("s-1", "r-a", nil)
	g.vault.put("s-2", "r-b", nil)
	g.vault.put("s-3", "r-a", nil)
	g.vault.drop("s-3")

	rt := g.routing.Load()
	now := time.Now()
	rt.replicas["r-b"].hp.ObserveFailure(now)
	rt.replicas["r-b"].hp.ObserveFailure(now) // FailAfter 2: ejected for the hour
	rt.replicas["r-c"].hp.SetDraining(true)
	rt.replicas["r-a"].inflight.Add(3)
	// ---- end of script ----

	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape(g); got != string(want) {
		t.Fatalf("scrape differs from testdata/metrics.golden\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestGatewayReplicaQuantilesNearestRank pins the rendered per-replica p50
// and p99 to the nearest-rank rule (rank ⌈p·n⌉) at the sample counts where
// the old int(p·(n-1)) index read one rank low — the same cases the loadgen
// percentile table pins, up to the full latency window.
func TestGatewayReplicaQuantilesNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 99, 100, latencyWindow} {
		g, _ := quietGateway(t, "r")
		for i := n; i >= 1; i-- { // sample i is i milliseconds, fed in descending order
			g.metrics.Forward("r", time.Duration(i)*time.Millisecond, true)
		}
		got := scrape(g)
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			rank := int(math.Ceil(q.p*float64(n) - 1e-9))
			line := fmt.Sprintf("seculator_gateway_replica_latency_%s_ms{replica=\"r\"} %d.000\n", q.name, rank)
			if !strings.Contains(got, line) {
				t.Errorf("n=%d: scrape lacks %q:\n%s", n, line, got)
			}
		}
	}
}
