package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"testing"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// Snapshot/restore across a process "restart": a session with inference
// history exports from one server and restores bit-identically into a
// fresh server sharing the snapshot key — same MAC registers, same channel
// sequence window, same subsequent outputs.
func TestSnapshotRestoreAcrossRestart(t *testing.T) {
	key := []byte("snapshot-sealing-key-for-tests--")
	_, c1 := newTestServer(t, serve.Options{SnapshotKey: key})
	ctx := ctxT(t)

	sess, err := c1.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c1.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 777, Session: sess.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c1.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SessionID != sess.SessionID || snap.Snapshot.MAC == "" {
		t.Fatalf("snapshot response: %+v", snap)
	}

	// "Restart": a brand-new server process with the same sealing key.
	_, c2 := newTestServer(t, serve.Options{SnapshotKey: key})
	restored, err := c2.RestoreSession(ctx, snap.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SessionID != sess.SessionID {
		t.Fatalf("restored id %s, want %s", restored.SessionID, sess.SessionID)
	}

	// Bit-identity: re-exporting the untouched restored session must give
	// the exact payload that went in — key, sequence window, MAC registers.
	again, err := c2.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Snapshot.Payload, snap.Snapshot.Payload) {
		t.Fatalf("restored state not bit-identical:\n before %s\n after  %s",
			snap.Snapshot.Payload, again.Snapshot.Payload)
	}

	// The restored session computes the same inference it would have on the
	// original server, and its command channel continues past the restored
	// sequence window (replay protection spans the restart).
	after, err := c2.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 777, Session: sess.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	if after.OutputSum != before.OutputSum || after.Commands != before.Commands {
		t.Fatalf("restored session diverged: sum %#x/%#x commands %d/%d",
			after.OutputSum, before.OutputSum, after.Commands, before.Commands)
	}
	var p1, p2 struct {
		LastSeq uint64 `json:"last_seq"`
		Infers  uint64 `json:"infers"`
	}
	if err := json.Unmarshal(snap.Snapshot.Payload, &p1); err != nil {
		t.Fatal(err)
	}
	final, err := c2.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(final.Snapshot.Payload, &p2); err != nil {
		t.Fatal(err)
	}
	if p1.LastSeq == 0 || p2.LastSeq <= p1.LastSeq || p2.Infers != p1.Infers+1 {
		t.Fatalf("sequence window did not continue: before seq=%d/infers=%d, after seq=%d/infers=%d",
			p1.LastSeq, p1.Infers, p2.LastSeq, p2.Infers)
	}
}

// Satellite: every tampered import is rejected with the typed
// snapshot_integrity class and creates no session state.
func TestSnapshotTamperRejected(t *testing.T) {
	key := []byte("snapshot-sealing-key-for-tests--")
	_, c1 := newTestServer(t, serve.Options{SnapshotKey: key})
	ctx := ctxT(t)
	sess, err := c1.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: sess.SessionID}); err != nil {
		t.Fatal(err)
	}
	snap, err := c1.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, serve.Options{SnapshotKey: key})
	expectReject := func(env serve.SnapshotEnvelope, what string) {
		t.Helper()
		_, err := c2.RestoreSession(ctx, env)
		if !client.IsSnapshotRejected(err) {
			t.Fatalf("%s: want snapshot_integrity rejection, got %v", what, err)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: want 422, got %v", what, err)
		}
	}

	// Seeded byte flips across the payload: every single-bit corruption
	// must fail the envelope MAC.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		env := snap.Snapshot
		env.Payload = append([]byte(nil), snap.Snapshot.Payload...)
		env.Payload[rng.Intn(len(env.Payload))] ^= byte(1 << rng.Intn(8))
		expectReject(env, "payload bit flip")
	}
	// A tampered MAC, a wrong version, and a spliced (foreign-payload)
	// envelope all fail closed. The tamper swaps the MAC's first hex digit
	// for another, so it changes the MAC whatever digit the MAC begins with.
	env := snap.Snapshot
	first := "0"
	if env.MAC[0] == '0' {
		first = "1"
	}
	env.MAC = first + env.MAC[1:]
	expectReject(env, "MAC tamper")
	env = snap.Snapshot
	env.Version = 2
	expectReject(env, "version confusion")

	// Nothing restored: the session must not exist on the target server.
	if _, err := c2.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: sess.SessionID}); !client.IsUnknownSession(err) {
		t.Fatalf("tampered import leaked session state: %v", err)
	}
	scrape, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, scrape, "seculator_serve_snapshot_rejected_total"); v < 10 {
		t.Fatalf("snapshot_rejected_total = %v, want >= 10", v)
	}
	if v := metricValue(t, scrape, "seculator_serve_snapshot_restored_total"); v != 0 {
		t.Fatalf("snapshot_restored_total = %v, want 0", v)
	}
}

// A snapshot restores neither into a server where the session still lives
// (duplicate) nor under a different tenant (splice across trust domains).
func TestSnapshotDuplicateAndForeignTenant(t *testing.T) {
	key := []byte("snapshot-sealing-key-for-tests--")
	_, c := newTestServer(t, serve.Options{
		SnapshotKey: key,
		Tenants: []serve.TenantConfig{
			{Key: "k-alice", Name: "alice"},
			{Key: "k-bob", Name: "bob"},
		},
	})
	ctx := ctxT(t)
	c.SetAPIKey("k-alice")
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate: the session is still live on this server.
	_, err = c.RestoreSession(ctx, snap.Snapshot)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict || ae.Body.Class != serve.ClassSessionExists {
		t.Fatalf("duplicate import: want 409/session_exists, got %v", err)
	}
	// Foreign tenant: bob restoring alice's snapshot is an integrity
	// failure, not a session transfer.
	c.SetAPIKey("k-bob")
	if _, err := c.RestoreSession(ctx, snap.Snapshot); !client.IsSnapshotRejected(err) {
		t.Fatalf("cross-tenant restore: %v", err)
	}
}
