package gateway

import (
	"sort"
	"sync"
	"time"

	"seculator/internal/metrics"
	"seculator/internal/serve/loadgen"
)

// metrics.go — the gateway's counter set, on the same registry and in the
// same idiom as internal/serve. Per-replica attribution is the point: the
// flat serve counters tell you the fleet is slow, these tell you which
// replica.

// latencyWindow keeps the most recent forward latencies of one replica so
// the scrape can report tail quantiles without a histogram dependency.
const latencyWindow = 1024

// replicaStats is one replica's forward-path accounting.
type replicaStats struct {
	requests   int64
	errors     int64
	latencySum time.Duration
	window     []time.Duration // ring buffer of recent latencies
	windowPos  int
}

// Metrics is the gateway counter set. Migration reasons label the
// migrations counter: "place" (create-time move to the ring owner),
// "rebalance" (ring change), "drain" (replica pre-draining), "failover"
// (replica death, vault restore).
type Metrics struct {
	reg metrics.Registry

	requests          metrics.CounterVec // code: gateway HTTP status
	retries           metrics.Counter    // forwards retried on an alternate replica
	migrations        metrics.CounterVec // reason
	migrationFailures metrics.Counter    // session stays put; the rebalancer retries

	mu       sync.Mutex
	replicas map[string]*replicaStats
}

// Migration reasons as rendered on /metrics.
const (
	MigratePlace     = "place"
	MigrateRebalance = "rebalance"
	MigrateDrain     = "drain"
	MigrateFailover  = "failover"
)

// newMetrics registers the families of g in scrape order.
func newMetrics(g *Gateway) *Metrics {
	m := &Metrics{replicas: make(map[string]*replicaStats)}
	r := &m.reg
	r.CounterVec("seculator_gateway_requests_total", &m.requests, "code")
	r.Collect(func(w *metrics.Writer) {
		w.Int("seculator_gateway_ring_generation", int64(g.Gen()))
		w.Int("seculator_gateway_vault_sessions", int64(g.vault.size()))
	})
	r.Counter("seculator_gateway_retries_total", &m.retries)
	r.CounterVec("seculator_gateway_migrations_total", &m.migrations, "reason")
	r.Counter("seculator_gateway_migration_failures_total", &m.migrationFailures)
	r.Collect(m.scrapeForwards)
	r.Collect(g.scrapeHealth)
	return m
}

// Request records one gateway response's final status.
func (m *Metrics) Request(status int) { m.requests.Inc(metrics.Code(status)) }

// Forward records one forwarded request's outcome against its replica.
// Transport errors count as errors with no latency sample (the duration
// of a refused connection says nothing about the replica's service time).
func (m *Metrics) Forward(replica string, d time.Duration, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.replicas[replica]
	if rs == nil {
		rs = &replicaStats{}
		m.replicas[replica] = rs
	}
	rs.requests++
	if !ok {
		rs.errors++
		return
	}
	rs.latencySum += d
	if len(rs.window) < latencyWindow {
		rs.window = append(rs.window, d)
	} else {
		rs.window[rs.windowPos] = d
	}
	rs.windowPos = (rs.windowPos + 1) % latencyWindow
}

// scrapeForwards writes each replica's forward accounting, replicas in
// name order; the quantiles are nearest-rank over the latency window.
func (m *Metrics) scrapeForwards(w *metrics.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.replicas))
	for n := range m.replicas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rs := m.replicas[n]
		sorted := append([]time.Duration(nil), rs.window...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		w.Int("seculator_gateway_replica_requests_total", rs.requests, "replica", n)
		w.Int("seculator_gateway_replica_errors_total", rs.errors, "replica", n)
		w.Millis("seculator_gateway_replica_latency_ms_total", rs.latencySum, "replica", n)
		w.Millis("seculator_gateway_replica_latency_p50_ms", loadgen.Percentile(sorted, 0.50), "replica", n)
		w.Millis("seculator_gateway_replica_latency_p99_ms", loadgen.Percentile(sorted, 0.99), "replica", n)
	}
}

// scrapeHealth writes the scrape-time health view of every replica on the
// ring.
func (g *Gateway) scrapeHealth(w *metrics.Writer) {
	rt := g.routing.Load()
	now := time.Now()
	for _, n := range rt.names {
		rep := rt.replicas[n]
		state, draining, ejects := rep.hp.Snapshot(now)
		var drain int64
		if draining {
			drain = 1
		}
		w.Int("seculator_gateway_replica_state", int64(state), "replica", n)
		w.Int("seculator_gateway_replica_draining", drain, "replica", n)
		w.Int("seculator_gateway_replica_inflight", rep.inflight.Load(), "replica", n)
		w.Int("seculator_gateway_replica_ejections_total", int64(ejects), "replica", n)
	}
}
