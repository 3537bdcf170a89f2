package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// knownClasses is every class the renderer writes.
var knownClasses = map[string]bool{
	ClassBadRequest: true, ClassConfig: true, ClassUnknownSession: true, ClassQueueFull: true,
	ClassDeadline: true, ClassShutdown: true, ClassIntegrity: true, ClassFreshness: true,
	ClassChannel: true, ClassInternal: true, ClassUnauthorized: true, ClassRateLimited: true,
	ClassQuarantined: true, ClassSnapshot: true, ClassSessionExists: true,
}

// FuzzSessionBodies sends arbitrary bytes as the body of a session create
// and of a snapshot restore through the server's handler. Neither may
// panic or answer 5xx, and every refusal must carry a known class. A
// session either route makes is evicted again, so every input meets the
// same server state; the committed corpus holds a sealed envelope, which
// restores.
func FuzzSessionBodies(f *testing.F) {
	s, err := New(Options{
		SnapshotKey: []byte("snapshot-sealing-key-for-fuzzing"),
		Tenants:     []TenantConfig{{Key: "k", Name: "t"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close(context.Background())
	f.Add([]byte(`{"idle_timeout_ms":1000}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/sessions", "/v1/sessions/restore"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("X-API-Key", "k")
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code == http.StatusCreated {
				var created SessionCreateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || !s.sessions.Evict(created.SessionID, "t", EvictClose) {
					t.Fatalf("POST %s %q: 201 with body %q (%v), not a live session", path, body, rec.Body, err)
				}
				continue
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("POST %s %q: %d with body %q: %v", path, body, rec.Code, rec.Body, err)
			}
			if rec.Code >= 500 || !knownClasses[eb.Class] {
				t.Fatalf("POST %s %q: %d %+v", path, body, rec.Code, eb)
			}
		}
	})
}

// FuzzResolveNetwork holds the network resolver, the "Name/div" shrink form
// included, to two outcomes for any name: a bad_request refusal, or a
// network that validates and resolves to itself by its own name.
func FuzzResolveNetwork(f *testing.F) {
	f.Add("MobileNet/8")
	f.Fuzz(func(t *testing.T, name string) {
		n, err := ResolveNetwork(name)
		if err != nil {
			if status, body := statusFor(err); status != http.StatusBadRequest || body.Class != ClassBadRequest {
				t.Fatalf("%q: refused %d %s (%v), want 400 bad_request", name, status, body.Class, err)
			}
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%q resolved to an invalid network: %v", name, err)
		}
		again, err := ResolveNetwork(n.Name)
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("%q resolved to %q, which resolves to %q (%v)", name, n.Name, again.Name, err)
		}
	})
}
