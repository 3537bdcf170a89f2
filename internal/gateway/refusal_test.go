package gateway_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/metrics"
	"seculator/internal/secure"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// tamper returns a hook that flips one byte, at phase, of the highest DRAM
// line that was present after loading (weights: a persistent integrity
// breach) or was not (activations: a freshness breach). A non-nil budget
// counts down the inferences left to tamper with.
func tamper(phase int, activation bool, budget *atomic.Int32) secure.Hook {
	loaded := map[uint64]bool{}
	fired := false
	return func(p int, d *mem.DRAM) {
		if p == -1 {
			for a := uint64(0); a < 1<<14; a++ {
				loaded[a] = d.Peek(a) != nil
			}
		}
		if p != phase || fired {
			return
		}
		if budget != nil && budget.Add(-1) < 0 {
			return
		}
		for a := uint64(1 << 14); a > 0 && !fired; a-- {
			if d.Peek(a-1) != nil && loaded[a-1] != activation {
				d.Tamper(a-1, 3, 0x40)
				fired = true
			}
		}
	}
}

// matrixEnv is one row's fleet: a gateway with a parked prober in front of
// one replica, and the gate the replica's "hold" tenant waits on.
type matrixEnv struct {
	c       *gateway.LocalCluster
	release chan struct{}
}

// send posts one request to base as tenant key and returns the status, the
// error body (zero on a 2xx) and the Retry-After header.
func send(t *testing.T, base, method, path, key, body string, hdr http.Header) (int, serve.ErrorBody, string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctxT(t), method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb serve.ErrorBody
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("%s %s: body %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, eb, resp.Header.Get("Retry-After")
}

// TestErrorPathMatrix provokes, through the gateway, every refusal class a
// client can meet there: each replica class on the stateless and
// session-bound infer route and on the session routes, relayed, and the
// gateway's own bad_request, unauthorized, config and upstream. Each row
// checks the status, class and retry hint, the Retry-After header
// (⌈ms/1000⌉ s, absent without a hint), layer and session eviction; one
// count in the gateway's requests_total{code}, which counts every route;
// one in the replica's on the infer route, none on its session routes and
// none at all for a refusal the gateway makes itself; the replica's shed
// reason; and that the replica's scheduler depth is free afterwards. The
// half-open probe slot is the replica's and serve.TestErrorPathMatrix
// checks it. internal never reaches the gateway for the reasons that
// matrix gives.
func TestErrorPathMatrix(t *testing.T) {
	const positive = -1 // retryMs: some hint, its size set by a real clock
	mini := `{"network":"Mini","seed":9}`
	onSession := `{"network":"Mini","seed":9,"session":"{session}"}`
	unknown := "s-00000000000000000000000000000000"
	breachingInfers := func(key string, n int) func(*testing.T, *matrixEnv) func() {
		return func(t *testing.T, e *matrixEnv) func() {
			for i := 0; i < n; i++ {
				send(t, e.c.GatewayURL, "POST", "/v1/infer", key, mini, nil)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name     string
		method   string
		path     string // "{session}" is replaced by the live session's id
		key      string
		hdr      http.Header
		body     string // "{session}", "{envelope}" and "{forged}" are replaced
		before   func(*testing.T, *matrixEnv) (after func())
		status   int
		class    string
		retryMs  int64 // positive: unknown but > 0
		layer    int   // -1: none
		evicted  bool
		replica  string // the replica route that counted: "infer", "session" or "" (none)
		shed     string
		upstream bool // the replica is dead: nothing to scrape
	}{
		{name: "infer/bad_request/malformed", method: "POST", path: "/v1/infer", key: "k", body: "{", status: 400, class: serve.ClassBadRequest, layer: -1},
		{name: "infer/bad_request/network", method: "POST", path: "/v1/infer", key: "k", body: `{"network":"NoSuchNet"}`, status: 400, class: serve.ClassBadRequest, layer: -1, replica: "infer"},
		{name: "infer/unauthorized", method: "POST", path: "/v1/infer", key: "nope", body: mini, status: 401, class: serve.ClassUnauthorized, layer: -1, replica: "infer"},
		{name: "infer/rate_limited", method: "POST", path: "/v1/infer", key: "k-rate", body: mini, status: 429, class: serve.ClassRateLimited, retryMs: positive, layer: -1, replica: "infer", shed: serve.ShedRate,
			before: func(t *testing.T, e *matrixEnv) func() {
				if status, _, _ := send(t, e.c.GatewayURL, "POST", "/v1/infer", "k-rate", mini, nil); status != 200 {
					t.Fatalf("the bucket's one token: %d", status)
				}
				return nil
			}},
		{name: "infer/quarantined/throttled", method: "POST", path: "/v1/infer", key: "k-throttle", body: mini, status: 429, class: serve.ClassQuarantined, retryMs: positive, layer: -1, replica: "infer", shed: serve.ShedQuarantine,
			before: breachingInfers("k-throttle", 2)}, // a breach, then a clean request spends the probation token
		{name: "infer/quarantined/open", method: "POST", path: "/v1/infer", key: "k-open", body: mini, status: 451, class: serve.ClassQuarantined, retryMs: positive, layer: -1, replica: "infer", shed: serve.ShedQuarantine,
			before: breachingInfers("k-open", 2)},
		{name: "infer/queue_full", method: "POST", path: "/v1/infer", key: "k", body: mini, status: 429, class: serve.ClassQueueFull, retryMs: 1000, layer: -1, replica: "infer", shed: serve.ShedQueue,
			before: func(t *testing.T, e *matrixEnv) func() {
				done := make(chan int, 1)
				go func() {
					status, _, _ := send(t, e.c.Replicas[0].URL, "POST", "/v1/infer", "k-hold", mini, nil)
					done <- status
				}()
				rc := client.New(e.c.Replicas[0].URL, nil)
				waitFor(t, 10*time.Second, "the held request's admission", func() bool {
					h, err := rc.Health(ctxT(t))
					return err == nil && h.Queue == 1
				})
				return func() {
					close(e.release)
					if status := <-done; status != 200 {
						t.Errorf("held request: %d", status)
					}
				}
			}},
		{name: "infer/deadline", method: "POST", path: "/v1/infer", key: "k-slow", body: `{"network":"Mini","seed":9,"timeout_ms":1}`, status: 503, class: serve.ClassDeadline, retryMs: 1000, layer: -1, replica: "infer"},
		{name: "infer/shutdown", method: "POST", path: "/v1/infer", key: "k", body: mini, status: 503, class: serve.ClassShutdown, retryMs: 1000, layer: -1, replica: "infer",
			before: func(t *testing.T, e *matrixEnv) func() {
				if err := e.c.Replicas[0].Server.Close(ctxT(t)); err != nil {
					t.Fatal(err)
				}
				return nil
			}},
		{name: "infer/unknown_session", method: "POST", path: "/v1/infer", key: "k", body: `{"network":"Mini","seed":9,"session":"` + unknown + `"}`, status: 404, class: serve.ClassUnknownSession, layer: -1, replica: "infer"},
		{name: "infer/freshness", method: "POST", path: "/v1/infer", key: "k-fresh", body: onSession, status: 409, class: serve.ClassFreshness, layer: 0, evicted: true, replica: "infer"},
		{name: "infer/channel", method: "POST", path: "/v1/infer", key: "k-chan", body: onSession, status: 409, class: serve.ClassChannel, layer: 4, evicted: true, replica: "infer"},
		{name: "infer/integrity", method: "POST", path: "/v1/infer", key: "k-integ", body: mini, status: 409, class: serve.ClassIntegrity, layer: 4, replica: "infer"},
		{name: "infer/upstream", method: "POST", path: "/v1/infer", key: "k", body: mini, status: 502, class: gateway.ClassUpstream, retryMs: 1000, layer: -1, upstream: true},
		{name: "infer/upstream/session", method: "POST", path: "/v1/infer", key: "k", body: onSession, status: 502, class: gateway.ClassUpstream, retryMs: 1000, layer: -1, upstream: true},

		{name: "create/bad_request", method: "POST", path: "/v1/sessions", key: "k", body: "{", status: 400, class: serve.ClassBadRequest, layer: -1},
		{name: "create/unauthorized", method: "POST", path: "/v1/sessions", status: 401, class: serve.ClassUnauthorized, layer: -1, replica: "session"},
		{name: "create/shutdown", method: "POST", path: "/v1/sessions", key: "k", status: 503, class: serve.ClassShutdown, retryMs: 1000, layer: -1, replica: "session",
			before: func(_ *testing.T, e *matrixEnv) func() { e.c.Drain(e.c.Replicas[0].Name); return nil }},
		{name: "create/upstream", method: "POST", path: "/v1/sessions", key: "k", status: 502, class: gateway.ClassUpstream, retryMs: 1000, layer: -1, upstream: true},
		{name: "delete/unknown_session", method: "DELETE", path: "/v1/sessions/" + unknown, key: "k", status: 404, class: serve.ClassUnknownSession, layer: -1, replica: "session"},
		{name: "snapshot/unknown_session", method: "GET", path: "/v1/sessions/" + unknown + "/snapshot", key: "k", status: 404, class: serve.ClassUnknownSession, layer: -1, replica: "session"},
		{name: "snapshot/upstream", method: "GET", path: "/v1/sessions/{session}/snapshot", key: "k", status: 502, class: gateway.ClassUpstream, retryMs: 1000, layer: -1, upstream: true},
		{name: "restore/bad_request", method: "POST", path: "/v1/sessions/restore", key: "k", body: "{", status: 400, class: serve.ClassBadRequest, layer: -1},
		{name: "restore/snapshot_integrity", method: "POST", path: "/v1/sessions/restore", key: "k", body: "{forged}", status: 422, class: serve.ClassSnapshot, layer: -1, replica: "session"},
		{name: "restore/session_exists", method: "POST", path: "/v1/sessions/restore", key: "k", body: "{envelope}", status: 409, class: serve.ClassSessionExists, layer: -1, replica: "session"},
		{name: "restore/shutdown", method: "POST", path: "/v1/sessions/restore", key: "k", body: "{envelope}", status: 503, class: serve.ClassShutdown, retryMs: 1000, layer: -1, replica: "session",
			before: func(_ *testing.T, e *matrixEnv) func() { e.c.Drain(e.c.Replicas[0].Name); return nil }},

		{name: "reload/unauthorized", method: "POST", path: "/admin/reload", hdr: http.Header{"X-Admin-Key": {"nope"}}, body: `{"replicas":[]}`, status: 401, class: serve.ClassUnauthorized, layer: -1},
		{name: "reload/bad_request", method: "POST", path: "/admin/reload", hdr: http.Header{"X-Admin-Key": {"{admin}"}}, body: "{", status: 400, class: serve.ClassBadRequest, layer: -1},
		{name: "reload/config", method: "POST", path: "/admin/reload", hdr: http.Header{"X-Admin-Key": {"{admin}"}}, body: `{"replicas":[]}`, status: 400, class: serve.ClassConfig, layer: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &matrixEnv{release: make(chan struct{})}
			var throttleLeft, openLeft atomic.Int32
			throttleLeft.Store(1)
			openLeft.Store(2)
			hooks := map[string]func() secure.Hook{
				"fresh":    func() secure.Hook { return tamper(0, true, nil) },
				"integ":    func() secure.Hook { return tamper(-1, false, nil) },
				"throttle": func() secure.Hook { return tamper(-1, false, &throttleLeft) },
				"open":     func() secure.Hook { return tamper(-1, false, &openLeft) },
				"hold": func() secure.Hook {
					return func(int, *mem.DRAM) { <-e.release }
				},
				"slow": func() secure.Hook {
					return func(int, *mem.DRAM) { time.Sleep(5 * time.Millisecond) }
				},
			}
			var tenants []serve.TenantConfig
			for _, name := range []string{"plain", "rate", "fresh", "chan", "integ", "throttle", "open", "hold", "slow"} {
				tc := serve.TenantConfig{Key: "k-" + name, Name: name}
				if name == "plain" {
					tc.Key = "k"
				}
				if name == "rate" {
					tc.RateRPS, tc.Burst = 0.001, 1
				}
				tenants = append(tenants, tc)
			}
			c, err := gateway.StartLocal(gateway.LocalOptions{
				Replicas: 1,
				Gateway:  gateway.Options{Health: parked},
				ServeOptions: func(int) serve.Options {
					return serve.Options{
						Scheduler:  serve.SchedulerConfig{Workers: 1, MaxQueue: 1},
						Tenants:    tenants,
						Quarantine: serve.QuarantineConfig{ThrottleAfter: 1, OpenAfter: 2, OpenFor: time.Minute, ThrottleRPS: 0.001, ThrottleBurst: 1},
						HookFor: func(tenant string) secure.Hook {
							if h := hooks[tenant]; h != nil {
								return h()
							}
							return nil
						},
						InterceptFor: func(tenant string) host.Intercept {
							if tenant == "chan" {
								return host.ReplayIntercept(2, 4)
							}
							return nil
						},
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			e.c = c
			ctx := ctxT(t)

			owner := "k"
			if strings.Contains(tc.body, "{session}") {
				owner = tc.key
			}
			gc := client.New(c.GatewayURL, nil)
			gc.SetAPIKey(owner)
			sess, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := gc.SnapshotSession(ctx, sess.SessionID)
			if err != nil {
				t.Fatal(err)
			}
			envelope, _ := json.Marshal(serve.RestoreRequest{Snapshot: snap.Snapshot})
			forged := snap.Snapshot
			forged.MAC = strings.Repeat("0", len(forged.MAC))
			forgedBody, _ := json.Marshal(serve.RestoreRequest{Snapshot: forged})

			var after func()
			if tc.before != nil {
				after = tc.before(t, e)
			}
			if tc.upstream {
				c.Kill(c.Replicas[0].Name)
			}
			rc := client.New(c.Replicas[0].URL, nil)
			scrapes := func() (gw, rep string) {
				gw, err := gc.Metrics(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.upstream {
					if rep, err = rc.Metrics(ctx); err != nil {
						t.Fatal(err)
					}
				}
				return gw, rep
			}
			gwBefore, repBefore := scrapes()

			fill := strings.NewReplacer("{session}", sess.SessionID, "{envelope}", string(envelope), "{forged}", string(forgedBody), "{admin}", c.AdminKey)
			hdr := http.Header{}
			for k, v := range tc.hdr {
				hdr.Set(k, fill.Replace(v[0]))
			}
			status, eb, retryHeader := send(t, c.GatewayURL, tc.method, fill.Replace(tc.path), tc.key, fill.Replace(tc.body), hdr)
			gwAfter, repAfter := scrapes()
			if after != nil {
				after()
			}

			if status != tc.status || eb.Class != tc.class {
				t.Fatalf("%d %s (%+v), want %d %s", status, eb.Class, eb, tc.status, tc.class)
			}
			if tc.retryMs == positive && eb.RetryAfterMs <= 0 || tc.retryMs != positive && eb.RetryAfterMs != tc.retryMs {
				t.Errorf("retry_after_ms %d, want %d", eb.RetryAfterMs, tc.retryMs)
			}
			wantHeader := ""
			if eb.RetryAfterMs > 0 {
				wantHeader = strconv.FormatInt((eb.RetryAfterMs+999)/1000, 10)
			}
			if retryHeader != wantHeader {
				t.Errorf("Retry-After %q, want %q", retryHeader, wantHeader)
			}
			if (eb.Layer != nil) != (tc.layer >= 0) || eb.Layer != nil && *eb.Layer != tc.layer {
				t.Errorf("layer %v, want %d", eb.Layer, tc.layer)
			}
			if eb.SessionEvicted != tc.evicted {
				t.Errorf("session_evicted %v, want %v", eb.SessionEvicted, tc.evicted)
			}

			delta := func(before, after, name string, labels ...string) float64 {
				b, _ := metrics.Value(before, name, labels...)
				a, _ := metrics.Value(after, name, labels...)
				return a - b
			}
			code := strconv.Itoa(tc.status)
			if all, one := delta(gwBefore, gwAfter, "seculator_gateway_requests_total"), delta(gwBefore, gwAfter, "seculator_gateway_requests_total", "code", code); all != 1 || one != 1 {
				t.Errorf("gateway requests_total +%v, {code=%s} +%v, want +1", all, code, one)
			}
			if tc.upstream {
				return
			}
			want := 0.0
			if tc.replica == "infer" {
				want = 1
			}
			if all, one := delta(repBefore, repAfter, "seculator_serve_requests_total"), delta(repBefore, repAfter, "seculator_serve_requests_total", "code", code); all != want || one != want {
				t.Errorf("replica requests_total +%v, {code=%s} +%v, want +%v", all, code, one, want)
			}
			for _, reason := range []string{serve.ShedRate, serve.ShedQueue, serve.ShedQuarantine} {
				want := 0.0
				if reason == tc.shed {
					want = 1
				}
				if got := delta(repBefore, repAfter, "seculator_serve_tenant_shed_total", "reason", reason); got != want {
					t.Errorf("replica tenant_shed{reason=%q} +%v, want +%v", reason, got, want)
				}
			}
			// A deadline answers while its run is between layers; the depth
			// slot frees when the run stops at the next one.
			waitFor(t, 10*time.Second, "the replica's queue depth back at 0", func() bool {
				h, err := rc.Health(ctx)
				return err == nil && h.Queue == 0
			})
		})
	}
}
