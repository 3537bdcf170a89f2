package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"seculator/internal/metrics"
	"seculator/internal/protect"
)

// Session-store lookup failures; the HTTP layer maps ErrSessionUnknown to
// 404 with the unknown_session class (an evicted or expired session is
// indistinguishable from one that never existed — no oracle for attackers
// probing IDs, and none for probing other tenants' sessions either), and
// ErrSessionExists to 409 on a snapshot import colliding with a live ID.
var (
	ErrSessionUnknown = errors.New("serve: unknown or expired session")
	ErrSessionExists  = errors.New("serve: session id already exists")
)

// Eviction reasons, reported on /metrics.
const (
	EvictIdle    = "idle"
	EvictBreach  = "breach"
	EvictClose   = "close"
	EvictMigrate = "migrate" // source side of a gateway-driven migration
)

// sessionKeyBytes is the negotiated session-key length. The command
// channel's HMAC-SHA256 takes any length; 32 bytes matches the hash.
const sessionKeyBytes = 32

// session is one issued secure session: the key the host controller and
// NPU endpoint share, the tenant that owns it, its idle horizon, and the
// durable security state that survives snapshot/restore — the command
// channel's last sequence number (so replay protection spans the session's
// whole life) and the XOR-MAC registers observed at the end of its last
// inference (the architectural state a migrated session must reproduce
// bit-identically).
type session struct {
	id      string
	tenant  string
	key     [sessionKeyBytes]byte
	idle    time.Duration
	expires time.Time

	lastSeq  uint64 // channel sequence of the last successful inference
	infers   uint64 // successful inferences under this session
	haveRegs bool
	regs     protect.RegisterState // final MAC registers of the last inference
	lastSum  uint64                // OutputSum of the last inference
}

// SessionGrant is what Acquire hands an inference: the session key and the
// channel continuation point.
type SessionGrant struct {
	Key     []byte
	BaseSeq uint64
}

// SessionManager issues and tracks secure sessions. Sessions expire after
// an idle period (each use extends the horizon) and are evicted immediately
// when an inference under their key latches a security breach — the
// serving-layer analogue of Figure 6's "security breach → reboot": the
// session key is dead, the client must negotiate a new one.
type SessionManager struct {
	mu   sync.Mutex
	m    map[string]*session
	idle time.Duration
	now  func() time.Time // injectable for tests

	// Lifetime totals; the server registers them on its /metrics registry.
	created, restored metrics.Counter
	evicted           metrics.CounterVec // reason
}

// NewSessionManager creates a store with the given default idle timeout.
func NewSessionManager(idle time.Duration) *SessionManager {
	return &SessionManager{
		m:    make(map[string]*session),
		idle: idle,
		now:  time.Now,
	}
}

// Create issues a new session owned by tenant. A positive idle below the
// server default shortens this session's expiry.
func (sm *SessionManager) Create(tenant string, idle time.Duration) (SessionCreateResponse, error) {
	s := &session{tenant: tenant, idle: sm.idle}
	if idle > 0 && idle < sm.idle {
		s.idle = idle
	}
	var idb [16]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return SessionCreateResponse{}, fmt.Errorf("serve: session id: %w", err)
	}
	if _, err := rand.Read(s.key[:]); err != nil {
		return SessionCreateResponse{}, fmt.Errorf("serve: session key: %w", err)
	}
	s.id = "s-" + hex.EncodeToString(idb[:])

	sm.mu.Lock()
	s.expires = sm.now().Add(s.idle)
	sm.m[s.id] = s
	sm.created.Inc()
	sm.mu.Unlock()
	return SessionCreateResponse{
		SessionID:     s.id,
		IdleTimeoutMs: s.idle.Milliseconds(),
		ExpiresAt:     s.expires,
	}, nil
}

// Acquire resolves a session ID to its grant and extends the idle horizon.
// A session owned by a different tenant resolves exactly like one that
// never existed. Expired sessions are evicted on touch.
func (sm *SessionManager) Acquire(id, tenant string) (SessionGrant, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	s, ok := sm.m[id]
	if !ok || s.tenant != tenant {
		return SessionGrant{}, ErrSessionUnknown
	}
	if sm.now().After(s.expires) {
		delete(sm.m, id)
		sm.evicted.Inc(EvictIdle)
		return SessionGrant{}, ErrSessionUnknown
	}
	s.expires = sm.now().Add(s.idle)
	key := make([]byte, sessionKeyBytes)
	copy(key, s.key[:])
	return SessionGrant{Key: key, BaseSeq: s.lastSeq}, nil
}

// Commit records a successful inference's durable state: the channel
// sequence it finished at and the final MAC registers it observed.
// Concurrent inferences on one session serialize here; the last writer's
// state wins (sequence numbers only move forward).
func (sm *SessionManager) Commit(id string, lastSeq uint64, regs protect.RegisterState, haveRegs bool, outputSum uint64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	s, ok := sm.m[id]
	if !ok {
		return
	}
	if lastSeq > s.lastSeq {
		s.lastSeq = lastSeq
	}
	if haveRegs {
		s.regs = regs
		s.haveRegs = true
	}
	s.lastSum = outputSum
	s.infers++
}

// Evict removes a session (breach latch, explicit delete). It reports
// whether the session existed (and, when tenant is non-empty, belonged to
// that tenant).
func (sm *SessionManager) Evict(id, tenant, reason string) bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	s, ok := sm.m[id]
	if !ok || (tenant != "" && s.tenant != tenant) {
		return false
	}
	delete(sm.m, id)
	sm.evicted.Inc(reason)
	return true
}

// Sweep evicts every expired session and returns how many it removed; the
// server's janitor calls it periodically so abandoned sessions don't pin
// memory until their next (never-coming) use.
func (sm *SessionManager) Sweep() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	now := sm.now()
	n := 0
	for id, s := range sm.m {
		if now.After(s.expires) {
			delete(sm.m, id)
			sm.evicted.Inc(EvictIdle)
			n++
		}
	}
	return n
}

// Active returns the live session count.
func (sm *SessionManager) Active() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.m)
}

// export serializes a session's full durable state. Tenant-scoped like
// Acquire: a foreign session exports as unknown.
func (sm *SessionManager) export(id, tenant string) (snapshotPayload, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	s, ok := sm.m[id]
	if !ok || (tenant != "" && s.tenant != tenant) {
		return snapshotPayload{}, ErrSessionUnknown
	}
	if sm.now().After(s.expires) {
		delete(sm.m, id)
		sm.evicted.Inc(EvictIdle)
		return snapshotPayload{}, ErrSessionUnknown
	}
	p := snapshotPayload{
		ID:      s.id,
		Tenant:  s.tenant,
		Key:     hex.EncodeToString(s.key[:]),
		IdleMs:  s.idle.Milliseconds(),
		LastSeq: s.lastSeq,
		Infers:  s.infers,
		LastSum: s.lastSum,
	}
	if s.haveRegs {
		p.Regs = encodeRegs(s.regs)
	}
	return p, nil
}

// exportAll snapshots every live session (server drain path).
func (sm *SessionManager) exportAll() []snapshotPayload {
	sm.mu.Lock()
	ids := make([][2]string, 0, len(sm.m))
	for id, s := range sm.m {
		ids = append(ids, [2]string{id, s.tenant})
	}
	sm.mu.Unlock()
	out := make([]snapshotPayload, 0, len(ids))
	for _, it := range ids {
		if p, err := sm.export(it[0], it[1]); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// importPayload rebuilds a session from a verified snapshot payload. The
// idle horizon restarts from now — a snapshot is a live hand-off, not a
// resurrection of long-dead state.
func (sm *SessionManager) importPayload(p snapshotPayload) (SessionCreateResponse, error) {
	keyBytes, err := hex.DecodeString(p.Key)
	if err != nil || len(keyBytes) != sessionKeyBytes {
		return SessionCreateResponse{}, fmt.Errorf("serve: snapshot key malformed")
	}
	s := &session{
		id:      p.ID,
		tenant:  p.Tenant,
		idle:    time.Duration(p.IdleMs) * time.Millisecond,
		lastSeq: p.LastSeq,
		infers:  p.Infers,
		lastSum: p.LastSum,
	}
	if s.idle <= 0 {
		s.idle = sm.idle
	}
	copy(s.key[:], keyBytes)
	if p.Regs != nil {
		regs, err := decodeRegs(p.Regs)
		if err != nil {
			return SessionCreateResponse{}, err
		}
		s.regs = regs
		s.haveRegs = true
	}

	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, dup := sm.m[s.id]; dup {
		return SessionCreateResponse{}, ErrSessionExists
	}
	s.expires = sm.now().Add(s.idle)
	sm.m[s.id] = s
	sm.restored.Inc()
	return SessionCreateResponse{
		SessionID:     s.id,
		IdleTimeoutMs: s.idle.Milliseconds(),
		ExpiresAt:     s.expires,
	}, nil
}
