package serve

import (
	"sync"
	"time"

	"seculator/internal/secure"
)

// residency.go — the serving tier's verified-weight residency cache.
//
// Weights are read-only at inference time (the GuardNN / MGX observation),
// so the server provisions them once per (network, model seed) into a
// secure.WeightResidency — the verified weight tensors, one golden digest
// per weighted layer and the pinned mapping — and attaches every request for
// that model to the shared pin: a resident run computes straight from the
// pinned tensors and neither stores nor fetches a weight. The epoch check
// (WeightResidency.Verify) folds every layer's digest again from those
// tensors, so it covers exactly the values the runs compute from.
// Invalidation rules:
//
//   - epoch expiry: entries older than residencyEpoch are
//     re-verified before the next attach; a failed check evicts the entry
//     and re-provisions from scratch, with weights derived afresh from the
//     seed;
//   - tenant breach: a quarantined tenant's verification floor moves to
//     "now", so that tenant's next attach forces a re-verify regardless of
//     epoch age — a breached tenant never rides a stale trust decision;
//   - capacity: least-recently-used entries are evicted beyond
//     residencyMaxModels.
//
// The cache is shared across tenants by design: the pinned state is
// content-addressed (network + seed fully determine the weights and their
// digests under the process DRAM identity), so there is nothing
// tenant-private in it — what is per-tenant is only the *trust freshness*
// floor above.

const (
	// residencyEpoch is how long a verified entry is trusted before the
	// next attach re-verifies it.
	residencyEpoch = 5 * time.Minute
	// residencyMaxModels bounds distinct resident (network, seed) entries;
	// least recently used entries are evicted beyond it.
	residencyMaxModels = 32
)

// resKey identifies one resident model: the raw requested network name
// (including "Name/div" shrink forms) plus the model seed that derives its
// weights.
type resKey struct {
	network string
	seed    int64
}

// resEntry is one resident model. The entry mutex is the singleflight: the
// first request to need a build (or an epoch re-verify) holds it for the
// duration, and concurrent requests for the same key block on it instead
// of each paying the provisioning cost.
type resEntry struct {
	mu         sync.Mutex
	res        *secure.WeightResidency
	verifiedAt time.Time

	// Maintained under the manager lock.
	lastUse time.Time
	bytes   int64
}

// residencyManager owns the resident entries and the per-tenant
// verification floors.
type residencyManager struct {
	metrics *Metrics
	now     func() time.Time

	mu      sync.Mutex
	entries map[resKey]*resEntry
	floors  map[string]time.Time
}

func newResidencyManager(metrics *Metrics) *residencyManager {
	return &residencyManager{
		metrics: metrics,
		now:     time.Now,
		entries: make(map[resKey]*resEntry),
		floors:  make(map[string]time.Time),
	}
}

// InvalidateTenant moves a tenant's verification floor to now: the
// tenant's next attach to any resident entry re-verifies it first. Called
// on every breach-class inference error, alongside the quarantine breaker.
func (m *residencyManager) InvalidateTenant(tenant string) {
	m.mu.Lock()
	m.floors[tenant] = m.now()
	m.mu.Unlock()
}

// attach returns the resident weights for (network, seed), building or
// re-verifying as the invalidation rules demand. hit reports whether the
// request rode an existing in-epoch entry. A build error (unmappable
// network, canceled context) is returned for the caller to fall back on
// the non-resident path.
func (m *residencyManager) attach(tenant, network string, seed int64,
	build func() (*secure.WeightResidency, error)) (res *secure.WeightResidency, hit bool, err error) {

	key := resKey{network: network, seed: seed}
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &resEntry{}
		m.entries[key] = e
		m.evictLocked(key)
	}
	e.lastUse = m.now()
	floor := m.floors[tenant]
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.res != nil {
		stale := m.now().Sub(e.verifiedAt) >= residencyEpoch || e.verifiedAt.Before(floor)
		if !stale {
			m.metrics.residencyHits.Inc()
			return e.res, true, nil
		}
		verr := e.res.Verify()
		m.metrics.residencyReverifies.Inc()
		if verr == nil {
			e.verifiedAt = m.now()
			m.metrics.residencyHits.Inc()
			return e.res, true, nil
		}
		// The pinned state failed its epoch check: drop it and fall
		// through to a from-scratch rebuild. The tampered bytes are never
		// served — Verify rejected them before any request attached.
		m.metrics.residencyVerifyFails.Inc()
		m.drop(key, e)
		m.metrics.residencyEvictions.Inc()
	}
	built, err := build()
	if err != nil {
		return nil, false, err
	}
	e.res, e.verifiedAt = built, m.now()
	m.metrics.residencyMisses.Inc()
	m.mu.Lock()
	if m.entries[key] == e { // not evicted while building
		e.bytes = built.Bytes()
		m.metrics.residentBytes.Add(e.bytes)
	}
	m.mu.Unlock()
	return built, false, nil
}

// drop clears a corrupted entry's pinned state and footprint accounting.
func (m *residencyManager) drop(key resKey, e *resEntry) {
	e.res = nil
	m.mu.Lock()
	if m.entries[key] == e && e.bytes != 0 {
		m.metrics.residentBytes.Add(-e.bytes)
		e.bytes = 0
	}
	m.mu.Unlock()
}

// evictLocked enforces residencyMaxModels after an insert of keep: the least
// recently used other entry goes. Caller holds m.mu.
func (m *residencyManager) evictLocked(keep resKey) {
	for len(m.entries) > residencyMaxModels {
		var victimKey resKey
		var victim *resEntry
		for k, e := range m.entries {
			if k == keep {
				continue
			}
			if victim == nil || e.lastUse.Before(victim.lastUse) {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(m.entries, victimKey)
		if victim.bytes != 0 {
			m.metrics.residentBytes.Add(-victim.bytes)
			victim.bytes = 0
		}
		m.metrics.residencyEvictions.Inc()
	}
}
