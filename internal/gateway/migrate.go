package gateway

import (
	"context"
	"crypto/hmac"
	"errors"
	"sync"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// migrate.go — the session vault and the migration paths that keep the
// "one session, one replica" invariant across replica drain, death, and
// ring change.
//
// The vault is the gateway's write-through shadow of every session it
// placed: which replica currently holds it, and the latest sealed
// snapshot of its durable state (updated atomically with every
// session-bound inference via the ReturnSnapshot piggyback). Three
// movement paths share the vault:
//
//   - live migration (placeSession, evacuate, rebalance): the source is
//     up, so the gateway exports a fresh sealed snapshot from it, imports
//     at the target, then evicts the source — the session's sequence
//     window and MAC registers hand off bit-identically, and the source
//     copy dies so the state can never fork.
//
//   - failover (sessionFailover, failoverAll): the source is dead, so the
//     vault's last snapshot restores at the survivor. The write-through
//     discipline makes that snapshot exactly the post-state of the last
//     acknowledged inference — nothing a client saw succeed is lost.
//
//   - the vault never migrates a session whose home might still hold
//     newer state: failover paths require the home to be observed down
//     first (the sequence window must not fork across replicas).

// vaultEntry tracks one session. home and env are guarded by mu; the
// entry itself lives in the vault map until the session dies.
type vaultEntry struct {
	mu      sync.Mutex
	replica string
	env     *serve.SnapshotEnvelope // latest sealed state; nil until first snapshot
}

func (e *vaultEntry) home() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replica
}

func (e *vaultEntry) envelope() *serve.SnapshotEnvelope {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env
}

func (e *vaultEntry) set(replica string, env *serve.SnapshotEnvelope) {
	e.mu.Lock()
	e.replica = replica
	if env != nil {
		e.env = env
	}
	e.mu.Unlock()
}

// vault is the session table: id → entry.
type vault struct {
	mu sync.Mutex
	m  map[string]*vaultEntry
}

func newVault() *vault { return &vault{m: make(map[string]*vaultEntry)} }

// put records a session's home (and, when non-nil, its latest snapshot).
func (v *vault) put(id, replica string, env *serve.SnapshotEnvelope) {
	v.mu.Lock()
	e := v.m[id]
	if e == nil {
		e = &vaultEntry{}
		v.m[id] = e
	}
	v.mu.Unlock()
	e.set(replica, env)
}

func (v *vault) get(id string) *vaultEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m[id]
}

func (v *vault) drop(id string) {
	v.mu.Lock()
	delete(v.m, id)
	v.mu.Unlock()
}

func (v *vault) size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.m)
}

// snapshotIDs returns every vaulted session id (unordered).
func (v *vault) snapshotIDs() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.m))
	for id := range v.m {
		out = append(out, id)
	}
	return out
}

// Locations returns a copy of the session table (session id → replica
// name) — the observability hook tests and the chaos harness assert on.
func (g *Gateway) Locations() map[string]string {
	g.vault.mu.Lock()
	ids := make([]string, 0, len(g.vault.m))
	for id := range g.vault.m {
		ids = append(ids, id)
	}
	g.vault.mu.Unlock()
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		if e := g.vault.get(id); e != nil {
			out[id] = e.home()
		}
	}
	return out
}

// migrateLive moves one session from a live source to target: export a
// fresh sealed snapshot, import it at the target, evict the source copy.
// It returns the migrated envelope, or nil on failure (the session stays
// at the source; the caller's next pass retries).
func (g *Gateway) migrateLive(src, target *replica, id, reason string) *serve.SnapshotEnvelope {
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	snap, err := src.admin.AdminSnapshot(ctx, id)
	if err != nil {
		g.metrics.migrationFailures.Inc()
		return nil
	}
	env := snap.Snapshot
	if !g.restoreAt(target, &env) {
		g.metrics.migrationFailures.Inc()
		return nil
	}
	// Source eviction closes the hand-off; a failure here (source died
	// mid-migration) is harmless — the target copy is authoritative in the
	// vault, and the orphan idle-expires.
	_ = src.admin.AdminEvict(ctx, id)
	g.metrics.migrations.Inc(reason)
	return &env
}

// restoreAt imports a sealed envelope at a replica through the admin
// surface. A session_exists collision counts as success — the state is
// already there (an earlier half-completed migration), and the envelope's
// MAC guarantees it is the same session.
func (g *Gateway) restoreAt(target *replica, env *serve.SnapshotEnvelope) bool {
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	_, err := target.admin.AdminRestore(ctx, *env)
	if err == nil {
		return true
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Body.Class == serve.ClassSessionExists {
		return true
	}
	return false
}

// failoverAll restores every vaulted session homed on a dead replica at
// its next ring alternative. Runs when the prober (or the forward path)
// ejects a replica; sessions without a vaulted snapshot are dropped (they
// never completed a create, so no client holds their id in good faith).
func (g *Gateway) failoverAll(deadName string) {
	rt := g.routing.Load()
	for _, id := range g.vault.snapshotIDs() {
		ent := g.vault.get(id)
		if ent == nil || ent.home() != deadName {
			continue
		}
		env := ent.envelope()
		if env == nil {
			g.vault.drop(id)
			continue
		}
		alt := sessionTarget(rt, id, deadName, time.Now(), (*prober).Available)
		if alt == nil {
			continue // no survivor; a later probe round retries
		}
		if !g.restoreAt(alt, env) {
			g.metrics.migrationFailures.Inc()
			continue
		}
		// Re-check the home under the entry's own state: a concurrent
		// per-request failover may have already moved it.
		if ent.home() == deadName {
			ent.set(alt.name, env)
			g.metrics.migrations.Inc(MigrateFailover)
		}
	}
}

// evacuate live-migrates every vaulted session off a draining replica.
// The replica still serves inference during the sweep, so sessions keep
// flowing until the moment their hand-off completes.
func (g *Gateway) evacuate(drainingName string) {
	rt := g.routing.Load()
	src := rt.replicas[drainingName]
	if src == nil {
		return
	}
	for _, id := range g.vault.snapshotIDs() {
		ent := g.vault.get(id)
		if ent == nil || ent.home() != drainingName {
			continue
		}
		target := sessionTarget(rt, id, drainingName, time.Now(), (*prober).AcceptingSessions)
		if target == nil {
			continue
		}
		if env := g.migrateLive(src, target, id, MigrateDrain); env != nil {
			ent.set(target.name, env)
		}
	}
}

// rebalanceLocked re-homes every vaulted session to its ring owner after
// a membership change. Live homes migrate; dead homes restore from the
// vault. Returns how many sessions moved. Caller holds g.reloadMu.
func (g *Gateway) rebalanceLocked() int {
	rt := g.routing.Load()
	moved := 0
	for _, id := range g.vault.snapshotIDs() {
		ent := g.vault.get(id)
		if ent == nil {
			continue
		}
		home := ent.home()
		desired := sessionTarget(rt, id, "", time.Now(), (*prober).AcceptingSessions)
		if desired == nil || desired.name == home {
			continue
		}
		src := rt.replicas[home]
		if src != nil && src.hp.Available(time.Now()) {
			if env := g.migrateLive(src, desired, id, MigrateRebalance); env != nil {
				ent.set(desired.name, env)
				moved++
			}
			continue
		}
		// The old home left the config or is down: restore from the vault.
		env := ent.envelope()
		if env == nil {
			continue
		}
		if g.restoreAt(desired, env) {
			ent.set(desired.name, env)
			g.metrics.migrations.Inc(MigrateRebalance)
			moved++
		} else {
			g.metrics.migrationFailures.Inc()
		}
	}
	return moved
}

// hmacEqual compares two strings in constant time (admin-key check).
func hmacEqual(a, b string) bool { return hmac.Equal([]byte(a), []byte(b)) }
