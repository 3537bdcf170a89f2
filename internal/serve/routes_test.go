package serve_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seculator/internal/metrics"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// TestSessionRouteTable pins every outcome of the three session operations
// — delete, snapshot, restore — on both of their routes: the tenant route
// (API key, ownership enforced) and the /admin route a gateway migrates
// through (X-Admin-Key, any tenant's session). Each row runs against a fresh
// server holding one live session of alice's, and checks the status, the
// error class and which eviction reason, if any, the request counted.
func TestSessionRouteTable(t *testing.T) {
	opts := serve.Options{
		SnapshotKey: []byte("snapshot-sealing-key-for-tests--"),
		AdminKey:    "admin-key",
		Tenants: []serve.TenantConfig{
			{Key: "k-alice", Name: "alice"},
			{Key: "k-bob", Name: "bob"},
		},
	}
	// Restores import a session of alice's minted on a second server that
	// shares the sealing key, so the target never already holds it.
	_, src := newTestServer(t, opts)
	src.SetAPIKey("k-alice")
	ctx := ctxT(t)
	minted, err := src.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.SnapshotSession(ctx, minted.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(serve.RestoreRequest{Snapshot: snap.Snapshot})
	if err != nil {
		t.Fatal(err)
	}

	const (
		live    = "{live}" // replaced by the target's live session id
		unknown = "s-00000000000000000000000000000000"
		restore = "restore"
	)
	tenant := func(key string) http.Header {
		h := http.Header{}
		if key != "" {
			h.Set("X-API-Key", key)
		}
		return h
	}
	admin := func(key string) http.Header {
		h := http.Header{}
		if key != "" {
			h.Set("X-Admin-Key", key)
		}
		return h
	}
	for _, tc := range []struct {
		name         string
		method, path string
		hdr          http.Header
		body         string // restore rows only; empty means the minted envelope
		drain        bool
		status       int
		class        string // "" on success
		evicted      string // the eviction reason counted once, or ""
	}{
		{"delete/ok", "DELETE", "/v1/sessions/" + live, tenant("k-alice"), "", false, http.StatusNoContent, "", serve.EvictClose},
		{"delete/unknown", "DELETE", "/v1/sessions/" + unknown, tenant("k-alice"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"delete/other tenant", "DELETE", "/v1/sessions/" + live, tenant("k-bob"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"delete/no key", "DELETE", "/v1/sessions/" + live, tenant(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"snapshot/ok", "GET", "/v1/sessions/" + live + "/snapshot", tenant("k-alice"), "", false, http.StatusOK, "", ""},
		{"snapshot/unknown", "GET", "/v1/sessions/" + unknown + "/snapshot", tenant("k-alice"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"snapshot/other tenant", "GET", "/v1/sessions/" + live + "/snapshot", tenant("k-bob"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"snapshot/no key", "GET", "/v1/sessions/" + live + "/snapshot", tenant(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"restore/ok", "POST", "/v1/sessions/" + restore, tenant("k-alice"), "", false, http.StatusCreated, "", ""},
		{"restore/other tenant", "POST", "/v1/sessions/" + restore, tenant("k-bob"), "", false, http.StatusUnprocessableEntity, serve.ClassSnapshot, ""},
		{"restore/no key", "POST", "/v1/sessions/" + restore, tenant(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"restore/draining", "POST", "/v1/sessions/" + restore, tenant("k-alice"), "", true, http.StatusServiceUnavailable, serve.ClassShutdown, ""},
		{"restore/malformed", "POST", "/v1/sessions/" + restore, tenant("k-alice"), "{", false, http.StatusBadRequest, serve.ClassBadRequest, ""},

		{"admin delete/ok", "DELETE", "/admin/sessions/" + live, admin("admin-key"), "", false, http.StatusNoContent, "", serve.EvictMigrate},
		{"admin delete/unknown", "DELETE", "/admin/sessions/" + unknown, admin("admin-key"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"admin delete/no key", "DELETE", "/admin/sessions/" + live, admin(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin delete/wrong key", "DELETE", "/admin/sessions/" + live, admin("nope"), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin snapshot/ok", "GET", "/admin/sessions/" + live + "/snapshot", admin("admin-key"), "", false, http.StatusOK, "", ""},
		{"admin snapshot/unknown", "GET", "/admin/sessions/" + unknown + "/snapshot", admin("admin-key"), "", false, http.StatusNotFound, serve.ClassUnknownSession, ""},
		{"admin snapshot/no key", "GET", "/admin/sessions/" + live + "/snapshot", admin(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin snapshot/wrong key", "GET", "/admin/sessions/" + live + "/snapshot", admin("nope"), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin restore/ok", "POST", "/admin/sessions/" + restore, admin("admin-key"), "", false, http.StatusCreated, "", ""},
		{"admin restore/no key", "POST", "/admin/sessions/" + restore, admin(""), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin restore/wrong key", "POST", "/admin/sessions/" + restore, admin("nope"), "", false, http.StatusUnauthorized, serve.ClassUnauthorized, ""},
		{"admin restore/draining", "POST", "/admin/sessions/" + restore, admin("admin-key"), "", true, http.StatusServiceUnavailable, serve.ClassShutdown, ""},
		{"admin restore/malformed", "POST", "/admin/sessions/" + restore, admin("admin-key"), "{", false, http.StatusBadRequest, serve.ClassBadRequest, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := serve.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				if err := srv.Close(ctx); err != nil {
					t.Errorf("drain: %v", err)
				}
				hs.Close()
			})
			c := client.New(hs.URL, hs.Client())
			c.SetAPIKey("k-alice")
			sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.drain {
				srv.BeginDrain()
			}
			var body io.Reader
			if tc.method == "POST" {
				body = strings.NewReader(string(envelope))
				if tc.body != "" {
					body = strings.NewReader(tc.body)
				}
			}
			req, err := http.NewRequestWithContext(ctx, tc.method, hs.URL+strings.ReplaceAll(tc.path, live, sess.SessionID), body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header = tc.hdr
			resp, err := hs.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var eb serve.ErrorBody
			if tc.class != "" {
				if err := json.Unmarshal(raw, &eb); err != nil {
					t.Fatalf("error body %q: %v", raw, err)
				}
			}
			if resp.StatusCode != tc.status || eb.Class != tc.class {
				t.Fatalf("%s %s: %d %q (%s), want %d %q", tc.method, tc.path, resp.StatusCode, eb.Class, raw, tc.status, tc.class)
			}
			switch tc.status {
			case http.StatusOK, http.StatusCreated:
				var ok struct {
					SessionID string `json:"session_id"`
				}
				want := sess.SessionID
				if tc.status == http.StatusCreated {
					want = minted.SessionID
				}
				if err := json.Unmarshal(raw, &ok); err != nil || ok.SessionID != want {
					t.Fatalf("success body %s, want session %s", raw, want)
				}
			}

			scrape, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, reason := range []string{serve.EvictClose, serve.EvictMigrate} {
				want := 0.0
				if reason == tc.evicted {
					want = 1
				}
				got, _ := metrics.Value(scrape, "seculator_serve_sessions_evicted_total", "reason", reason)
				if got != want {
					t.Errorf("sessions_evicted_total{reason=%q} = %v, want %v", reason, got, want)
				}
			}
		})
	}
}

// TestHugeTimeoutsAreClamped: a client-supplied millisecond count is clamped
// before it becomes a time.Duration, so asking for the longest deadline or
// idle timeout gets the server's bound instead of overflowing into an
// already-expired one.
func TestHugeTimeoutsAreClamped(t *testing.T) {
	_, c := newTestServer(t, serve.Options{SessionIdle: time.Minute})
	ctx := ctxT(t)
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, TimeoutMs: math.MaxInt64}); err != nil {
		t.Fatalf("infer with TimeoutMs = MaxInt64: %v", err)
	}
	// 18446744073710 ms is 2^64 ns plus a fraction of a millisecond: the
	// product wraps to a positive sub-millisecond duration.
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{IdleTimeoutMs: 18446744073710})
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Minute.Milliseconds(); sess.IdleTimeoutMs != want {
		t.Fatalf("idle timeout %d ms, want the server default %d ms", sess.IdleTimeoutMs, want)
	}
}
