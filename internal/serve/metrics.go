package serve

import (
	"seculator/internal/metrics"
	"seculator/internal/runner"
)

// Shed reasons of the tenant admission path, as rendered on /metrics.
const (
	ShedRate       = "rate"       // token bucket empty
	ShedQueue      = "queue"      // global or per-tenant queue full
	ShedQuarantine = "quarantine" // breaker refused (throttled/open/half-open)
)

// Metrics is the server's counter set: every family of GET /metrics on one
// registry, in scrape order. Everything is monotone except the gauges; the
// scheduler and breaker lines are sampled from their owners at scrape
// time, the session counters live on the SessionManager, and the
// simulation-cache lines come from runner.CacheStats, which
// runner.ResetCacheStats can window.
type Metrics struct {
	reg metrics.Registry

	requests       metrics.CounterVec // code: final status of each infer request
	inferOK        metrics.Counter    // successful inferences,
	latency, queue metrics.Counter    // their admission-to-response and queued time

	snapshotExports, restoreOK, restoreRejected metrics.Counter

	tenantAdmitted metrics.CounterVec // tenant: requests past every tenant gate
	tenantShed     metrics.CounterVec // tenant, reason: requests refused at one
	tenantBreaches metrics.CounterVec // tenant: breach-class inference errors

	// Residency: hits attach to a resident in-epoch entry, misses build one
	// (first touch, or rebuild after a failed epoch check), reverifies are
	// epoch re-checks and verifyFails those that found the pinned state
	// corrupted, evictions are by capacity or corruption, residentBytes is
	// the pinned weight tensors' footprint.
	residencyHits, residencyMisses, residencyReverifies metrics.Counter
	residencyVerifyFails, residencyEvictions            metrics.Counter
	residentBytes                                       metrics.Gauge
}

// newMetrics registers the families of s in scrape order.
func newMetrics(s *Server) *Metrics {
	m := &Metrics{}
	r := &m.reg
	r.CounterVec("seculator_serve_requests_total", &m.requests, "code")
	r.Counter("seculator_serve_infer_ok_total", &m.inferOK)
	r.MillisCounter("seculator_serve_infer_latency_ms_total", &m.latency)
	r.MillisCounter("seculator_serve_infer_queue_ms_total", &m.queue)
	r.Collect(func(w *metrics.Writer) {
		w.Int("seculator_serve_queue_depth", int64(s.sched.Depth()))
		w.Int("seculator_serve_sessions_active", int64(s.sessions.Active()))
	})
	r.Counter("seculator_serve_sessions_created_total", &s.sessions.created)
	r.Counter("seculator_serve_sessions_restored_total", &s.sessions.restored)
	r.CounterVec("seculator_serve_sessions_evicted_total", &s.sessions.evicted, "reason")
	r.Counter("seculator_serve_snapshot_exports_total", &m.snapshotExports)
	r.Counter("seculator_serve_snapshot_restored_total", &m.restoreOK)
	r.Counter("seculator_serve_snapshot_rejected_total", &m.restoreRejected)
	r.CounterVec("seculator_serve_tenant_admitted_total", &m.tenantAdmitted, "tenant")
	r.CounterVec("seculator_serve_tenant_shed_total", &m.tenantShed, "tenant", "reason")
	r.CounterVec("seculator_serve_tenant_breaches_total", &m.tenantBreaches, "tenant")
	r.Collect(func(w *metrics.Writer) {
		for _, t := range s.tenants.All() { // registration order
			if br := t.Breaker(); br != nil {
				w.Int("seculator_serve_tenant_breaker_state", int64(br.State()), "tenant", t.Name())
				w.Int("seculator_serve_tenant_breaker_opens_total", int64(br.Opens()), "tenant", t.Name())
			}
		}
	})
	r.Counter("seculator_serve_residency_hits_total", &m.residencyHits)
	r.Counter("seculator_serve_residency_misses_total", &m.residencyMisses)
	r.Counter("seculator_serve_residency_reverifies_total", &m.residencyReverifies)
	r.Counter("seculator_serve_residency_verify_failures_total", &m.residencyVerifyFails)
	r.Counter("seculator_serve_residency_evictions_total", &m.residencyEvictions)
	r.Counter("seculator_serve_residency_resident_bytes", &m.residentBytes.Counter)
	r.Collect(func(w *metrics.Writer) {
		cs := runner.CacheStats()
		w.Int("seculator_serve_sim_cache_hits", int64(cs.Hits))
		w.Int("seculator_serve_sim_cache_misses", int64(cs.Misses))
		w.Int("seculator_serve_sim_cache_entries", int64(cs.Entries))
	})
	return m
}

// Request records one inference request's final status.
func (m *Metrics) Request(status int) { m.requests.Inc(metrics.Code(status)) }
