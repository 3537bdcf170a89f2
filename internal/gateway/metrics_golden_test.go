package gateway

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
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

// TestStatelessCandidatesBoundedLoad pins the bounded-load overflow with
// in-flight counts set directly: a replica at or past the bound (LoadFactor
// × (fleet in-flight + 1) / available, plus one) yields to every replica
// under it, and each side keeps its rendezvous order. The forwarding tests
// reach the overflow only when concurrent requests happen to pile up.
func TestStatelessCandidatesBoundedLoad(t *testing.T) {
	g, _ := quietGateway(t, "r-a", "r-b", "r-c")
	rt := g.routing.Load()
	pref := Rendezvous(rt.names, "tenant")
	order := func(inflight ...int64) []string {
		t.Helper()
		for i, n := range inflight {
			rep := rt.replicas[pref[i]]
			rep.inflight.Add(n - rep.inflight.Load())
		}
		var got []string
		for _, rep := range statelessCandidates(rt, "tenant", time.Now()) {
			got = append(got, rep.name)
		}
		return got
	}
	for _, c := range []struct {
		inflight []int64
		want     []int // indices into pref
	}{
		{[]int64{0, 0, 0}, []int{0, 1, 2}}, // bound 1: nobody is at it
		{[]int64{2, 0, 0}, []int{1, 2, 0}}, // bound int(1.25·3/3)+1 = 2: the favourite yields
		{[]int64{6, 6, 0}, []int{2, 0, 1}}, // bound 6: both yield, in rendezvous order
		{[]int64{1, 1, 1}, []int{0, 1, 2}}, // bound int(1.25·4/3)+1 = 2: an even spread keeps the order
	} {
		want := make([]string, len(c.want))
		for i, j := range c.want {
			want[i] = pref[j]
		}
		if got := order(c.inflight...); !slices.Equal(got, want) {
			t.Errorf("in-flight %v on %v: candidates %v, want %v", c.inflight, pref, got, want)
		}
	}
	rt.replicas[pref[1]].hp.SetDraining(true) // draining still serves stateless requests
	rt.replicas[pref[2]].hp.ObserveFailure(time.Now())
	rt.replicas[pref[2]].hp.ObserveFailure(time.Now()) // FailAfter 2: ejected
	if got := order(9, 0, 0); !slices.Equal(got, []string{pref[1], pref[0]}) {
		t.Errorf("with %s ejected: candidates %v, want %v", pref[2], got, []string{pref[1], pref[0]})
	}
}
