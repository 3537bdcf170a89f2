package gateway_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/metrics"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// A session's home dies while the prober is parked: the next session
// inference finds the home unreachable, checks that it is really gone,
// restores the vaulted snapshot at the ring successor and is served
// there. The output equals the one the home gave for the same seed, the
// command sequence continues where the home left it, and the move is
// counted as one failover.
func TestSessionFailoverOnForward(t *testing.T) {
	c, err := gateway.StartLocal(gateway.LocalOptions{Replicas: 3, Gateway: gateway.Options{Health: parked}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	gc := client.New(c.GatewayURL, nil)
	ctx := ctxT(t)

	sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.SessionID
	before, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: id, ReturnSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	home := before.Replica
	if got := c.Gateway.Locations()[id]; got != home {
		t.Fatalf("session served by %s, vaulted at %s", home, got)
	}
	var names []string
	for _, r := range c.Replicas {
		names = append(names, r.Name)
	}
	successor := ""
	for _, n := range gateway.NewRing(names, 0).Seq(id) {
		if n != home {
			successor = n
			break
		}
	}

	c.Kill(home)
	// Kill closes the listener in the background, and until then the
	// draining server still answers 503.
	homeURL := c.Replica(home).URL
	waitFor(t, 10*time.Second, "the home's listener to close", func() bool {
		_, err := client.New(homeURL, nil).Health(ctx)
		return err != nil
	})
	after, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: id, ReturnSnapshot: true})
	if err != nil {
		t.Fatalf("session infer with its home dead: %v", err)
	}
	if after.Replica != successor {
		t.Fatalf("served by %s, want the ring successor %s", after.Replica, successor)
	}
	if after.OutputSum != before.OutputSum || after.Commands != before.Commands {
		t.Fatalf("failover changed the result: sum %#x/%#x commands %d/%d",
			after.OutputSum, before.OutputSum, after.Commands, before.Commands)
	}
	pre, post := decodeState(t, before.Snapshot), decodeState(t, after.Snapshot)
	if post.LastSeq != pre.LastSeq+uint64(after.Commands) {
		t.Fatalf("command sequence %d → %d over %d commands: not a continuation",
			pre.LastSeq, post.LastSeq, after.Commands)
	}
	if got := c.Gateway.Locations()[id]; got != successor {
		t.Fatalf("vault homes the session at %s, want %s", got, successor)
	}
	scrape, err := gc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := metrics.Value(scrape, "seculator_gateway_migrations_total", "reason", "failover"); v != 1 {
		t.Fatalf(`migrations_total{reason="failover"} = %v, want 1`, v)
	}
}

// stubReplicas starts one replica stub per handler, named by the map key,
// and returns their config in name order.
func stubReplicas(t *testing.T, handlers map[string]http.Handler, names ...string) gateway.Config {
	t.Helper()
	var cfg gateway.Config
	for _, name := range names {
		rs := httptest.NewServer(handlers[name])
		t.Cleanup(rs.Close)
		cfg.Replicas = append(cfg.Replicas, gateway.ReplicaConfig{Name: name, URL: rs.URL})
	}
	return cfg
}

// stub is a replica that is healthy and answers session creates with
// create (nil: 404).
func stub(create http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.HealthResponse{Status: "ok"})
	})
	if create != nil {
		mux.HandleFunc("POST /v1/sessions", create)
	}
	return mux
}

func busyCreate(w http.ResponseWriter, _ *http.Request) {
	serve.WriteError(w, http.StatusServiceUnavailable, serve.ErrorBody{
		Error: "draining", Class: serve.ClassShutdown, RetryAfterMs: 1000})
}

func newGateway(t *testing.T, opts gateway.Options) *gateway.Gateway {
	t.Helper()
	g, err := gateway.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// serveReq runs one request through a gateway's handler.
func serveReq(g *gateway.Gateway, method, path, body string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// scrapeValue reads family name from the gateway's /metrics.
func scrapeValue(g *gateway.Gateway, name string) float64 {
	v, _ := metrics.Value(serveReq(g, http.MethodGet, "/metrics", "", nil).Body.String(), name)
	return v
}

// A replica answers a session create with 5xx only when it made no
// session, so the gateway moves on to the next candidate after one. The
// last candidate's answer is relayed as it is, 503 and Retry-After
// included, not replaced by a 502.
func TestSessionCreateMovesOnAfter5xx(t *testing.T) {
	// The tenant key of an unauthenticated request is "anonymous": the
	// busy stub gets the rendezvous first pick.
	order := gateway.Rendezvous([]string{"a", "b"}, "anonymous")
	created := func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusCreated, serve.SessionCreateResponse{SessionID: "s-1", IdleTimeoutMs: 1000})
	}
	g := newGateway(t, gateway.Options{Health: parked, Config: stubReplicas(t, map[string]http.Handler{
		order[0]: stub(busyCreate), order[1]: stub(created),
	}, "a", "b")})
	rec := serveReq(g, http.MethodPost, "/v1/sessions", "", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create with the first pick busy: %d %s, want 201", rec.Code, rec.Body)
	}
	if home := g.Locations()["s-1"]; home != order[1] {
		t.Fatalf("session vaulted at %q, want %s", home, order[1])
	}
	if v := scrapeValue(g, "seculator_gateway_retries_total"); v != 1 {
		t.Fatalf("retries_total = %v, want 1", v)
	}

	g = newGateway(t, gateway.Options{Health: parked, Config: stubReplicas(t, map[string]http.Handler{
		"a": stub(busyCreate), "b": stub(busyCreate),
	}, "a", "b")})
	rec = serveReq(g, http.MethodPost, "/v1/sessions", `{"idle_timeout_ms":1000}`, nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("create with every candidate busy: %d with Retry-After %q, want 503 with \"1\"",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Class != serve.ClassShutdown {
		t.Fatalf("relayed body %s (%v), want the replica's shutdown class", rec.Body, err)
	}
	if v := scrapeValue(g, "seculator_gateway_retries_total"); v != 1 {
		t.Fatalf("retries_total = %v, want 1", v)
	}
	if rec := serveReq(g, http.MethodPost, "/v1/sessions", "{", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed create body: %d, want 400", rec.Code)
	}
}

// POST /admin/reload swaps the replica set from a JSON body, or re-reads
// the config file when the body is empty. It wants the admin key and a
// well-formed body.
func TestAdminReload(t *testing.T) {
	handlers := map[string]http.Handler{"a": stub(nil), "b": stub(nil), "c": stub(nil)}
	all := stubReplicas(t, handlers, "a", "b", "c")
	path := filepath.Join(t.TempDir(), "gateway.json")
	writeConfig := func(cfg gateway.Config) {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	writeConfig(all)
	const key = "reload-key"
	g := newGateway(t, gateway.Options{ConfigPath: path, AdminKey: key, Health: parked})
	admin := http.Header{"X-Admin-Key": {key}}
	replicas := func() int {
		t.Helper()
		var h gateway.GatewayHealth
		if err := json.Unmarshal(serveReq(g, http.MethodGet, "/healthz", "", nil).Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h.Replicas
	}
	reload := func(body string, want int) gateway.ReloadResponse {
		t.Helper()
		rec := serveReq(g, http.MethodPost, "/admin/reload", body, admin)
		var rr gateway.ReloadResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil {
			t.Fatalf("reload: %d %s", rec.Code, rec.Body)
		}
		if rr.Generation != g.Gen() || replicas() != want {
			t.Fatalf("reload answered generation %d (gateway at %d) with %d replicas, want %d",
				rr.Generation, g.Gen(), replicas(), want)
		}
		return rr
	}
	if n := replicas(); n != 3 {
		t.Fatalf("started with %d replicas from the file, want 3", n)
	}

	gen := g.Gen()
	body, err := json.Marshal(gateway.Config{Replicas: all.Replicas[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if rr := reload(string(body), 2); rr.Generation != gen+1 {
		t.Fatalf("body reload: generation %d, want %d", rr.Generation, gen+1)
	}

	writeConfig(gateway.Config{Replicas: all.Replicas[1:2]})
	if rr := reload("", 1); rr.Generation != gen+2 {
		t.Fatalf("file reload: generation %d, want %d", rr.Generation, gen+2)
	}

	for _, tc := range []struct {
		name   string
		body   string
		header http.Header
		want   int
	}{
		{"no admin key", "", nil, http.StatusUnauthorized},
		{"wrong admin key", "", http.Header{"X-Admin-Key": {"not-the-key"}}, http.StatusUnauthorized},
		{"malformed body", `{"replicas":`, admin, http.StatusBadRequest},
		{"config without replicas", `{"replicas":[]}`, admin, http.StatusBadRequest},
	} {
		if rec := serveReq(g, http.MethodPost, "/admin/reload", tc.body, tc.header); rec.Code != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	if g.Gen() != gen+2 || replicas() != 1 {
		t.Fatalf("refused reloads changed the routing: generation %d, %d replicas", g.Gen(), replicas())
	}

	// A gateway configured without a file has nothing to re-read.
	fileless := newGateway(t, gateway.Options{Config: all, Health: parked})
	if rec := serveReq(fileless, http.MethodPost, "/admin/reload", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty-body reload without a config file: %d, want 400", rec.Code)
	}
}
