package gateway_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/metrics"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// fastHealth is a prober configuration quick enough for tests without
// being racy on a loaded single-core CI box.
func fastHealth() gateway.HealthConfig {
	return gateway.HealthConfig{
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     2,
		EjectFor:      100 * time.Millisecond,
	}
}

// parked is a prober configuration that never probes during a test, so
// only the forward path can move a replica's health.
var parked = gateway.HealthConfig{ProbeInterval: time.Hour}

// startCluster brings up n replicas behind a gateway with fast probing
// and returns a typed client pointed at the gateway.
func startCluster(t *testing.T, n int) (*gateway.LocalCluster, *client.Client) {
	t.Helper()
	c, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: n,
		Gateway:  gateway.Options{Health: fastHealth()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, client.New(c.GatewayURL, nil)
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A stateless inference through the gateway returns the same checksum a
// direct replica run does, stamped with the serving replica's name.
func TestGatewayStatelessInfer(t *testing.T) {
	c, gc := startCluster(t, 2)
	ctx := ctxT(t)
	via, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if via.Replica == "" {
		t.Fatal("gateway did not stamp replica attribution")
	}
	direct, err := client.New(c.Replicas[0].URL, nil).Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if via.OutputSum != direct.OutputSum {
		t.Fatalf("gateway checksum %#x, direct %#x", via.OutputSum, direct.OutputSum)
	}
	if via.Snapshot != nil {
		t.Fatal("stateless response carried a snapshot")
	}
}

// Sessions created through the gateway land on their ring owner and stay
// sticky: every inference of one session serves from the same replica.
func TestGatewaySessionSticky(t *testing.T) {
	c, gc := startCluster(t, 3)
	ctx := ctxT(t)
	sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	loc := c.Gateway.Locations()
	home, ok := loc[sess.SessionID]
	if !ok {
		t.Fatalf("session %s not vaulted: %v", sess.SessionID, loc)
	}
	for i := 0; i < 3; i++ {
		resp, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i), Session: sess.SessionID})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Replica != home {
			t.Fatalf("infer %d served by %s, home is %s", i, resp.Replica, home)
		}
		if resp.Commands == 0 {
			t.Fatalf("session inference reported no authenticated commands")
		}
		if resp.Snapshot != nil {
			t.Fatal("piggybacked snapshot leaked to a client that didn't ask")
		}
	}
	// The client can still ask for the snapshot explicitly.
	resp, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 9, Session: sess.SessionID, ReturnSnapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshot == nil {
		t.Fatal("ReturnSnapshot honored nowhere")
	}
	if err := gc.CloseSession(ctx, sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Gateway.Locations()[sess.SessionID]; ok {
		t.Fatal("vault entry outlived the session")
	}
}

// Draining a replica migrates its sessions away live: the gateway's
// prober sees "draining" in /healthz and evacuates, after which
// inference for those sessions serves from other replicas with the
// sequence window intact.
func TestGatewayDrainEvacuates(t *testing.T) {
	c, gc := startCluster(t, 2)
	ctx := ctxT(t)

	// Create eight sessions, and more until at least one lives on each
	// replica: the evacuation must pass over the survivor's sessions.
	homes := map[string]string{}
	used := map[string]bool{}
	for i := 0; i < 8 || len(used) < len(c.Replicas); i++ {
		if i == 64 {
			t.Fatalf("64 sessions all homed on %v", used)
		}
		sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i), Session: sess.SessionID}); err != nil {
			t.Fatal(err)
		}
		homes[sess.SessionID] = c.Gateway.Locations()[sess.SessionID]
		used[homes[sess.SessionID]] = true
	}
	victim := c.Replicas[0].Name
	c.Drain(victim)
	waitFor(t, 10*time.Second, "evacuation", func() bool {
		for _, home := range c.Gateway.Locations() {
			if home == victim {
				return false
			}
		}
		return true
	})
	// Every session keeps working, now on the survivor.
	for id := range homes {
		resp, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 99, Session: id})
		if err != nil {
			t.Fatalf("post-drain infer on %s: %v", id, err)
		}
		if resp.Replica == victim {
			t.Fatalf("session %s still served by draining replica", id)
		}
	}
}

// Hot reload: adding a replica bumps the ring generation and rebalances
// only the sessions whose ring owner changed; in-flight service
// continues.
func TestGatewayHotReload(t *testing.T) {
	c, gc := startCluster(t, 3)
	ctx := ctxT(t)
	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i), Session: sess.SessionID}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.SessionID)
	}
	before := c.Gateway.Locations()
	gen := c.Gateway.Gen()

	// Shrink to two replicas, removing the first session's home, so at
	// least one session must re-home from the vault on every run.
	cfg := gateway.Config{}
	removed := before[ids[0]]
	for _, r := range c.Replicas {
		if r.Name != removed {
			cfg.Replicas = append(cfg.Replicas, gateway.ReplicaConfig{Name: r.Name, URL: r.URL})
		}
	}
	if _, err := c.Gateway.Reload(cfg); err != nil {
		t.Fatal(err)
	}
	if c.Gateway.Gen() != gen+1 {
		t.Fatalf("ring generation %d, want %d", c.Gateway.Gen(), gen+1)
	}
	after := c.Gateway.Locations()
	for _, id := range ids {
		if after[id] == removed {
			t.Fatalf("session %s still homed on removed replica", id)
		}
		if before[id] != removed && before[id] != after[id] {
			t.Fatalf("session %s moved %s→%s though its home survived", id, before[id], after[id])
		}
		if _, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: id}); err != nil {
			t.Fatalf("post-reload infer on %s: %v", id, err)
		}
	}
}

// A dead replica is ejected and stateless traffic retries on the
// survivor within the retry budget — the client sees no error.
func TestGatewayStatelessFailover(t *testing.T) {
	c, gc := startCluster(t, 2)
	ctx := ctxT(t)
	c.Kill(c.Replicas[1].Name)
	for i := 0; i < 6; i++ {
		resp, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i)})
		if err != nil {
			t.Fatalf("infer %d with one dead replica: %v", i, err)
		}
		if resp.Replica == c.Replicas[1].Name {
			t.Fatalf("response attributed to the dead replica")
		}
	}
}

// The gateway /healthz degrades when every replica is gone.
func TestGatewayHealthDegraded(t *testing.T) {
	c, _ := startCluster(t, 2)
	for _, r := range c.Replicas {
		c.Kill(r.Name)
	}
	waitFor(t, 10*time.Second, "all replicas ejected", func() bool {
		_, err := client.New(c.GatewayURL, nil).Infer(context.Background(),
			serve.InferRequest{Network: "Mini", Seed: 1})
		return err != nil
	})
}

// Clients hanging up must not eject healthy replicas. A forward that fails
// because the inbound request's own context is cancelled says nothing
// about the replica: no failure observation, no per-replica error, no
// retry on the next candidate, no failover — and the next live client is
// served. (The prober is parked at a 1 h interval so only the forward path
// can move the health FSM.)
func TestGatewayClientCancelDoesNotEjectReplicas(t *testing.T) {
	c, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: 2,
		Gateway:  gateway.Options{Health: parked},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer",
			strings.NewReader(`{"network":"Mini","seed":1}`)).WithContext(gone)
		c.Gateway.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}

	gc := client.New(c.GatewayURL, nil)
	ctx := ctxT(t)
	scrape, err := gc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"seculator_gateway_replica_ejections_total",
		"seculator_gateway_replica_errors_total",
		"seculator_gateway_retries_total",
	} {
		// A replica no forward was ever accounted to has no errors line.
		if v, _ := metrics.Value(scrape, name); v != 0 {
			t.Errorf("%s = %v after three hung-up clients, want 0", name, v)
		}
	}
	if _, err := gc.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		t.Fatalf("live request after three hung-up clients: %v", err)
	}
}

// A client that hangs up during session create is not retried on the next
// replica: forward leaves the ctx.Err() check to its callers, and session
// create makes it as stateless inference does. Both replicas hold the
// create until its request context ends, so only the client's cancel can
// end the first forward. (The prober is parked at a 1 h interval.)
func TestSessionCreateClientCancelNotRetried(t *testing.T) {
	arrived := make(chan struct{}, 2)
	replica := http.NewServeMux()
	replica.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.HealthResponse{Status: "ok"})
	})
	replica.HandleFunc("POST /v1/sessions", func(_ http.ResponseWriter, r *http.Request) {
		// Only once the body is consumed does the server watch the
		// connection, and so end the request context when the caller leaves.
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
	})
	var cfg gateway.Config
	for _, name := range []string{"r0", "r1"} {
		rs := httptest.NewServer(replica)
		t.Cleanup(rs.Close)
		cfg.Replicas = append(cfg.Replicas, gateway.ReplicaConfig{Name: name, URL: rs.URL})
	}
	g, err := gateway.New(gateway.Options{Config: cfg, Health: parked})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader("{}")).WithContext(ctx)
		g.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-arrived:
	case <-done:
		t.Fatalf("session create answered %d before reaching a replica", rec.Code)
	}
	cancel()
	<-done // the handler has returned: its 502 is written and counted
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("session create with the client gone: %d, want 502", rec.Code)
	}
	scrape := httptest.NewRecorder()
	g.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if v, _ := metrics.Value(scrape.Body.String(), "seculator_gateway_requests_total", "code", "502"); v != 1 {
		t.Fatalf("requests_total{code=\"502\"} = %v, want 1", v)
	}
	if v, _ := metrics.Value(scrape.Body.String(), "seculator_gateway_retries_total"); v != 0 {
		t.Fatalf("retries_total = %v after a hung-up session create, want 0", v)
	}
}

// postInfer sends one raw POST /v1/infer and returns the status and the
// Retry-After header, which the typed client does not surface.
func postInfer(t *testing.T, base, apiKey string) (status int, retryAfter string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctxT(t), http.MethodPost, base+"/v1/infer",
		strings.NewReader(`{"network":"Mini","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", apiKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// Retry-After survives the gateway: a rate-limited replica's 429 carries
// the same header through the gateway as it does directly, and the
// gateway's own 502s — dynamic and pre-serialized — carry one too.
func TestGatewayRelaysRetryAfter(t *testing.T) {
	c, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: 1,
		Gateway:  gateway.Options{Health: fastHealth()},
		ServeOptions: func(int) serve.Options {
			return serve.Options{Tenants: []serve.TenantConfig{{Key: "k", RateRPS: 0.001, Burst: 1}}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	if status, _ := postInfer(t, c.GatewayURL, "k"); status != http.StatusOK {
		t.Fatalf("first request through the gateway: %d", status)
	}
	status, via := postInfer(t, c.GatewayURL, "k")
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request through the gateway: %d, want 429", status)
	}
	status, direct := postInfer(t, c.Replicas[0].URL, "k")
	if status != http.StatusTooManyRequests || direct == "" {
		t.Fatalf("direct request to the replica: %d with Retry-After %q", status, direct)
	}
	if via != direct {
		t.Fatalf("Retry-After through the gateway %q, from the replica directly %q", via, direct)
	}

	// The replica dies: while it is still in rotation the forward fails (a
	// 502 rendered per request); once it is ejected no replica is left (the
	// pre-serialized 502).
	c.Kill(c.Replicas[0].Name)
	bad := func() {
		t.Helper()
		if status, retry := postInfer(t, c.GatewayURL, "k"); status != http.StatusBadGateway || retry != "1" {
			t.Fatalf("request with the only replica dead: %d with Retry-After %q, want 502 with \"1\"", status, retry)
		}
	}
	waitFor(t, 10*time.Second, "the dead replica's ejection", func() bool {
		bad()
		scrape, err := client.New(c.GatewayURL, nil).Metrics(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := metrics.Value(scrape, "seculator_gateway_replica_ejections_total")
		return v > 0
	})
	bad()
}
