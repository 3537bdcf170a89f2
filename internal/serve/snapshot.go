package serve

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"seculator/internal/mac"
	"seculator/internal/protect"
	"seculator/internal/resilience"
)

// snapshot.go — serializable session snapshots. A snapshot is the complete
// durable state of one secure session (key, channel sequence window, final
// MAC registers) sealed in an integrity-protected envelope, so a session
// can survive a process restart or migrate to another replica without
// weakening the security state machine: the restored command channel
// continues the strictly-increasing sequence window, and the restored MAC
// registers are bit-identical to the exported ones.
//
// The envelope is authenticated, not encrypted: a snapshot travels back to
// the session's own tenant over the (assumed confidential) API channel, and
// the tenant already owns everything the session computes. What the MAC
// prevents is exactly what the paper's threat model grants the attacker —
// tampering and splicing: any bit flipped in the payload, any version
// confusion, any envelope stitched from two snapshots fails verification
// and creates no session state.

// snapshotVersion is the envelope format version; imports of any other
// version are rejected as integrity failures (no silent downgrades).
const snapshotVersion = 1

// snapshotDomain separates the snapshot MAC from every other HMAC use of
// the serving layer.
const snapshotDomain = "seculator-session-snapshot-v"

// snapshotPayload is the serialized session state inside the envelope.
type snapshotPayload struct {
	ID      string        `json:"id"`
	Tenant  string        `json:"tenant"`
	Key     string        `json:"key"` // hex session key
	IdleMs  int64         `json:"idle_ms"`
	LastSeq uint64        `json:"last_seq"`
	Infers  uint64        `json:"infers"`
	LastSum uint64        `json:"last_sum"`
	Regs    *snapshotRegs `json:"regs,omitempty"` // nil before the first inference
}

// snapshotRegs is the wire form of protect.RegisterState: the four XOR-MAC
// registers with their fold counts, hex-encoded.
type snapshotRegs struct {
	W, R, FR, IR                     string `json:",omitempty"`
	WFolds, RFolds, FRFolds, IRFolds uint64
}

func encodeRegs(r protect.RegisterState) *snapshotRegs {
	return &snapshotRegs{
		W: hex.EncodeToString(r.W[:]), R: hex.EncodeToString(r.R[:]),
		FR: hex.EncodeToString(r.FR[:]), IR: hex.EncodeToString(r.IR[:]),
		WFolds: r.WFolds, RFolds: r.RFolds, FRFolds: r.FRFolds, IRFolds: r.IRFolds,
	}
}

func decodeRegs(s *snapshotRegs) (protect.RegisterState, error) {
	var out protect.RegisterState
	for _, f := range []struct {
		src string
		dst *mac.Digest
	}{{s.W, &out.W}, {s.R, &out.R}, {s.FR, &out.FR}, {s.IR, &out.IR}} {
		b, err := hex.DecodeString(f.src)
		if err != nil || len(b) != len(f.dst) {
			return out, fmt.Errorf("serve: snapshot MAC register malformed")
		}
		copy(f.dst[:], b)
	}
	out.WFolds, out.RFolds, out.FRFolds, out.IRFolds = s.WFolds, s.RFolds, s.FRFolds, s.IRFolds
	return out, nil
}

// newSnapshotKey returns a fresh random sealing key — the default when the
// operator configures none. Snapshots sealed under it verify only within
// this process; cross-restart restore needs a configured key.
func newSnapshotKey() []byte {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		panic(fmt.Sprintf("serve: snapshot key: %v", err))
	}
	return k
}

// sealSnapshot wraps a payload in the authenticated envelope.
func sealSnapshot(key []byte, p snapshotPayload) (SnapshotEnvelope, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return SnapshotEnvelope{}, err
	}
	sum := snapshotMAC(key, snapshotVersion, raw)
	return SnapshotEnvelope{
		Version: snapshotVersion,
		Payload: raw,
		MAC:     hex.EncodeToString(sum[:]),
	}, nil
}

// openSnapshot verifies an envelope and decodes its payload. Every failure
// is a typed *resilience.SnapshotIntegrityError and must not create any
// session state.
func openSnapshot(key []byte, env SnapshotEnvelope) (snapshotPayload, error) {
	if env.Version != snapshotVersion {
		return snapshotPayload{}, &resilience.SnapshotIntegrityError{
			Reason: "version", Err: fmt.Errorf("version %d, want %d", env.Version, snapshotVersion),
		}
	}
	// The MAC text must be the one sealSnapshot writes, lower-case hex:
	// decoding it first would also accept its upper-case spellings.
	got := snapshotMAC(key, env.Version, env.Payload)
	if !hmac.Equal([]byte(env.MAC), []byte(hex.EncodeToString(got[:]))) {
		return snapshotPayload{}, &resilience.SnapshotIntegrityError{Reason: "mac"}
	}
	var p snapshotPayload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return snapshotPayload{}, &resilience.SnapshotIntegrityError{Reason: "payload", Err: err}
	}
	if p.ID == "" || p.Key == "" {
		return snapshotPayload{}, &resilience.SnapshotIntegrityError{
			Reason: "payload", Err: fmt.Errorf("missing session id or key"),
		}
	}
	return p, nil
}

// hmacEqualString compares two strings in constant time (admin-key check).
func hmacEqualString(a, b string) bool { return hmac.Equal([]byte(a), []byte(b)) }

// snapshotMAC computes HMAC-SHA256 over the domain-separated envelope. The
// prefix is built with append into stack scratch and the sum lands in a
// value array — the seal/unseal path performs no heap allocation beyond the
// HMAC state itself.
func snapshotMAC(key []byte, version int, payload []byte) [sha256.Size]byte {
	h := hmac.New(sha256.New, key)
	prefix := make([]byte, 0, len(snapshotDomain)+24)
	prefix = append(prefix, snapshotDomain...)
	prefix = strconv.AppendInt(prefix, int64(version), 10)
	prefix = append(prefix, ':')
	h.Write(prefix)
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// SnapshotSession exports one session as a sealed envelope (server-side
// API; the HTTP surface is GET /v1/sessions/{id}/snapshot).
func (s *Server) SnapshotSession(id, tenant string) (SnapshotEnvelope, error) {
	p, err := s.sessions.export(id, tenant)
	if err != nil {
		return SnapshotEnvelope{}, err
	}
	env, err := sealSnapshot(s.snapshotKey, p)
	if err == nil {
		s.metrics.snapshotExports.Inc()
	}
	return env, err
}

// RestoreSession imports a sealed envelope. tenant, when non-empty, must
// match the snapshot's owner (a tenant cannot restore another tenant's
// session — that would be a splice across trust domains, so it fails as an
// integrity violation rather than leaking whose snapshot it was).
func (s *Server) RestoreSession(env SnapshotEnvelope, tenant string) (SessionCreateResponse, error) {
	p, err := openSnapshot(s.snapshotKey, env)
	if err == nil && tenant != "" && p.Tenant != tenant {
		err = &resilience.SnapshotIntegrityError{Reason: "tenant", Err: fmt.Errorf("snapshot owner mismatch")}
	}
	var resp SessionCreateResponse
	if err == nil {
		resp, err = s.sessions.importPayload(p)
	}
	if err != nil {
		s.metrics.restoreRejected.Inc()
		return SessionCreateResponse{}, err
	}
	s.metrics.restoreOK.Inc()
	return resp, nil
}

// SnapshotAll exports every live session — the drain-time persistence path
// (and the chaos harness's restart hand-off).
func (s *Server) SnapshotAll() ([]SnapshotEnvelope, error) {
	payloads := s.sessions.exportAll()
	out := make([]SnapshotEnvelope, 0, len(payloads))
	for _, p := range payloads {
		env, err := sealSnapshot(s.snapshotKey, p)
		if err != nil {
			return nil, err
		}
		out = append(out, env)
	}
	return out, nil
}

// RestoreAll imports a batch of envelopes (process start). It returns how
// many restored; individual failures (tampered, duplicate) are skipped and
// reported in the error joined at the end.
func (s *Server) RestoreAll(envs []SnapshotEnvelope) (int, error) {
	n := 0
	var firstErr error
	for i, env := range envs {
		if _, err := s.RestoreSession(env, ""); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: restore %d: %w", i, err)
			}
			continue
		}
		n++
	}
	return n, firstErr
}
