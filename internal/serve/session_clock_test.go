package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Session-lifetime tests on a stepped clock: idle expiry is decided by
// SessionManager.now, so these tests move time instead of waiting for it.

// steppedClock drives a session store's clock. The store reads now only
// under its mutex, so stepping under the same mutex keeps the janitor
// goroutine race-free.
type steppedClock struct {
	sm *SessionManager
	t  time.Time
}

func newSteppedClock(sm *SessionManager) *steppedClock {
	c := &steppedClock{sm: sm, t: time.Unix(1_000_000, 0)}
	sm.mu.Lock()
	sm.now = func() time.Time { return c.t }
	sm.mu.Unlock()
	return c
}

func (c *steppedClock) step(d time.Duration) {
	c.sm.mu.Lock()
	c.t = c.t.Add(d)
	c.sm.mu.Unlock()
}

// sessionServer starts a server whose sessions idle out after idle, for one
// tenant keyed "k". With idle at a minute the janitor ticks every 30 s of
// wall time, so within a test only an explicit Sweep evicts.
func sessionServer(t *testing.T, idle time.Duration) (*Server, *steppedClock) {
	t.Helper()
	s, err := New(Options{SessionIdle: idle, Tenants: []TenantConfig{{Key: "k", Name: "churn"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s, newSteppedClock(s.sessions)
}

// send sends one request through the server's handler as tenant "k" and
// returns the recorded response.
func send(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-API-Key", "k")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func openSession(t *testing.T, s *Server) string {
	t.Helper()
	rec := send(s, http.MethodPost, "/v1/sessions", "")
	var resp SessionCreateResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		t.Fatalf("session create: %d %s", rec.Code, rec.Body)
	}
	return resp.SessionID
}

// inferOn runs one Mini inference on the session and returns the status
// and, on failure, the error class.
func inferOn(t *testing.T, s *Server, id string) (int, string) {
	t.Helper()
	rec := send(s, http.MethodPost, "/v1/infer", `{"network":"Mini","seed":1,"session":"`+id+`"}`)
	if rec.Code == http.StatusOK {
		return rec.Code, ""
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q: %v", rec.Body, err)
	}
	return rec.Code, body.Class
}

func idleEvictions(t *testing.T, s *Server) string {
	t.Helper()
	scrape := send(s, http.MethodGet, "/metrics", "").Body.String()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, `seculator_serve_sessions_evicted_total{reason="idle"} `); ok {
			return v
		}
	}
	return "0"
}

// Each use extends a session's idle horizon; a session touched after it has
// passed is evicted on that touch, answers unknown_session, and counts as
// one idle eviction.
func TestSessionIdleExpiry(t *testing.T) {
	const idle = time.Minute
	s, clock := sessionServer(t, idle)
	id := openSession(t, s)

	clock.step(idle - time.Second)
	if code, class := inferOn(t, s, id); code != http.StatusOK {
		t.Fatalf("session inside its horizon refused: %d %s", code, class)
	}
	clock.step(idle - time.Second) // inside the horizon the inference renewed
	if code, class := inferOn(t, s, id); code != http.StatusOK {
		t.Fatalf("use did not extend the idle horizon: %d %s", code, class)
	}
	clock.step(idle + time.Millisecond)
	if code, class := inferOn(t, s, id); code != http.StatusNotFound || class != ClassUnknownSession {
		t.Fatalf("expired session: %d %s, want 404 %s", code, class, ClassUnknownSession)
	}
	if got := idleEvictions(t, s); got != "1" {
		t.Fatalf("sessions_evicted_total{reason=\"idle\"} = %s, want 1", got)
	}
}

// Session churn: one tenant rotates through sessions, abandoning each to
// idle expiry while its successor carries the traffic. The janitor's sweep
// evicts exactly the sessions past their horizon: they answer
// unknown_session, the live one still serves, and the idle eviction counter
// counts each expired session once.
func TestSessionChurnAcrossIdleExpiry(t *testing.T) {
	const idle = time.Minute
	s, clock := sessionServer(t, idle)

	// Sessions opened and used at t = 0, 20, 40 and 60 s expire at 60, 80,
	// 100 and 120 s.
	var ids []string
	for i := 0; i < 4; i++ {
		if i > 0 {
			clock.step(idle / 3)
		}
		id := openSession(t, s)
		if code, class := inferOn(t, s, id); code != http.StatusOK {
			t.Fatalf("session %d: %d %s", i, code, class)
		}
		ids = append(ids, id)
	}
	expired, live := ids[:3], ids[3]

	clock.step(2*idle/3 + time.Second) // t = 101 s
	s.sessions.Sweep()
	if n := s.sessions.Active(); n != 1 {
		t.Fatalf("%d sessions live after the sweep, want 1", n)
	}
	for i, id := range expired {
		if code, class := inferOn(t, s, id); code != http.StatusNotFound || class != ClassUnknownSession {
			t.Fatalf("expired session %d: %d %s, want 404 %s", i, code, class, ClassUnknownSession)
		}
	}
	if code, class := inferOn(t, s, live); code != http.StatusOK {
		t.Fatalf("live session refused after the sweep: %d %s", code, class)
	}
	if got := idleEvictions(t, s); got != "3" {
		t.Fatalf("sessions_evicted_total{reason=\"idle\"} = %s, want 3", got)
	}
}
