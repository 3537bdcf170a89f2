package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/metrics"
	"seculator/internal/secure"
)

// matrixFixture is one row's server: tenant "t" (key "k") owns a live
// session, tenant "hold" (key "k-hold") can occupy the scheduler's worker,
// and both tenants' breakers and buckets run on the stepped clock now.
type matrixFixture struct {
	s       *Server
	now     time.Time
	session string
}

// tenant returns the configured tenant named by key.
func (f *matrixFixture) tenant(key string) *Tenant { return f.s.tenants.byKey[key] }

// breach records n breaches against tenant t's breaker.
func (f *matrixFixture) breach(n int) {
	for i := 0; i < n; i++ {
		f.tenant("k").Breaker().Record(true, false, f.now)
	}
}

// halfOpen opens tenant t's breaker and lets its hold run out, so the next
// request of t is granted the half-open probe slot.
func (f *matrixFixture) halfOpen() {
	f.breach(2)
	f.now = f.now.Add(5 * time.Second)
}

// hold occupies the scheduler's one worker until the returned release runs.
func (f *matrixFixture) hold(t *testing.T) (release func()) {
	free, done := holdWorker(t, f.s.sched, f.tenant("k-hold"))
	return func() {
		free()
		if err := <-done; err != nil {
			t.Errorf("held task: %v", err)
		}
	}
}

// tamperHook flips one byte of the first line it finds at phase that is
// not among the lines present after loading (activations: a freshness
// breach), or of the highest line present after loading (weights: an
// integrity breach).
func tamperHook(phase int, activation bool) secure.Hook {
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
		for a := uint64(1 << 14); a > 0 && !fired; a-- {
			if d.Peek(a-1) != nil && loaded[a-1] != activation {
				d.Tamper(a-1, 3, 0x40)
				fired = true
			}
		}
	}
}

// TestErrorPathMatrix provokes every class the serving renderer emits, on
// the stateless and session-bound infer route and on the session routes,
// and checks each refusal's whole footprint: status, class, retry hint and
// Retry-After header (⌈ms/1000⌉ s, absent without a hint), layer and
// session eviction; one count in requests_total{code} on the infer route
// and none on the session routes; the shed reason, the admission and the
// breach counts; and that the half-open probe slot and the scheduler's
// depth are free afterwards. Every infer row that gets past the quarantine
// gate runs as the breaker's half-open probe.
//
// Classes no route reaches:
//   - config: resolveNetwork admits only networks that validate
//     (FuzzResolveNetwork), and the executor's other ConfigErrors come from
//     the server's fixed NPU and DRAM configuration; the gateway's reload
//     refusal carries the class (gateway.TestErrorPathMatrix).
//   - internal: only a failing crypto/rand or an executor panic makes one.
//   - session_exists and snapshot_integrity on the infer route: only a
//     restore imports a snapshot.
//   - queue_full from the per-tenant bound and shutdown from admission:
//     the scheduler tests cover ErrTenantQueueFull, and the drain gate
//     refuses before admission can.
func TestErrorPathMatrix(t *testing.T) {
	const (
		infer   = "POST /v1/infer"
		session = "{session}"
	)
	mini := `{"network":"Mini","seed":9}`
	onSession := `{"network":"Mini","seed":9,"session":"` + session + `"}`
	for _, tc := range []struct {
		name      string
		route     string // method and path; session is replaced by the live session's id
		key       string // X-API-Key
		adminKey  string // X-Admin-Key, on /admin routes
		body      string // session is replaced by the live session's id; "{envelope}" and "{forged}" by restore bodies
		opts      func(*Options)
		before    func(t *testing.T, f *matrixFixture) (after func())
		status    int
		class     string
		retryMs   int64
		layer     int // -1: none
		evicted   bool
		shed      string // tenant_shed reason counted once, or ""
		admitted  bool
		breached  bool
		probeless bool // the row never reaches the quarantine gate as a probe
	}{
		{name: "infer/bad_request/malformed", route: infer, key: "k", body: "{", status: 400, class: ClassBadRequest, layer: -1},
		{name: "infer/bad_request/network", route: infer, key: "k", body: `{"network":"NoSuchNet"}`, status: 400, class: ClassBadRequest, layer: -1},
		{name: "infer/bad_request/input", route: infer, key: "k", body: `{"network":"Mini","input":[1,2,3]}`, status: 400, class: ClassBadRequest, layer: -1},
		{name: "infer/unauthorized", route: infer, key: "nope", body: mini, status: 401, class: ClassUnauthorized, layer: -1},
		{name: "infer/rate_limited", route: infer, key: "k", body: mini, status: 429, class: ClassRateLimited, retryMs: 1000, layer: -1, shed: ShedRate,
			before: func(_ *testing.T, f *matrixFixture) func() {
				f.tenant("k").TakeToken(f.now)
				return nil
			}},
		{name: "infer/quarantined/throttled", route: infer, key: "k", body: mini, status: 429, class: ClassQuarantined, retryMs: 1000, layer: -1, shed: ShedQuarantine, probeless: true,
			before: func(_ *testing.T, f *matrixFixture) func() {
				f.breach(1)
				f.tenant("k").Breaker().Allow("t", f.now) // spends the probation token
				return nil
			}},
		{name: "infer/quarantined/open", route: infer, key: "k", body: mini, status: 451, class: ClassQuarantined, retryMs: 5000, layer: -1, shed: ShedQuarantine, probeless: true,
			before: func(_ *testing.T, f *matrixFixture) func() {
				f.breach(2)
				return nil
			}},
		{name: "infer/queue_full", route: infer, key: "k", body: mini, status: 429, class: ClassQueueFull, retryMs: 1000, layer: -1, shed: ShedQueue,
			before: func(t *testing.T, f *matrixFixture) func() { return f.hold(t) }},
		{name: "infer/shutdown", route: infer, key: "k", body: mini, status: 503, class: ClassShutdown, retryMs: 1000, layer: -1, probeless: true,
			before: func(t *testing.T, f *matrixFixture) func() {
				if err := f.s.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
				return nil
			}},
		{name: "infer/deadline", route: infer, key: "k", body: `{"network":"Mini","seed":9,"timeout_ms":1}`, status: 503, class: ClassDeadline, retryMs: 1000, layer: -1, admitted: true,
			opts:   func(o *Options) { o.Scheduler.MaxQueue = 2 }, // room to wait behind the held worker
			before: func(t *testing.T, f *matrixFixture) func() { return f.hold(t) }},
		{name: "infer/unknown_session", route: infer, key: "k", body: `{"network":"Mini","seed":9,"session":"s-00000000000000000000000000000000"}`, status: 404, class: ClassUnknownSession, layer: -1},
		{name: "infer/freshness", route: infer, key: "k", body: onSession, status: 409, class: ClassFreshness, layer: 0, evicted: true, admitted: true, breached: true,
			opts: func(o *Options) { o.HookFor = func(string) secure.Hook { return tamperHook(0, true) } }},
		{name: "infer/channel", route: infer, key: "k", body: onSession, status: 409, class: ClassChannel, layer: 4, evicted: true, admitted: true, breached: true,
			opts: func(o *Options) { o.InterceptFor = func(string) host.Intercept { return host.ReplayIntercept(2, 4) } }},
		{name: "infer/integrity", route: infer, key: "k", body: mini, status: 409, class: ClassIntegrity, layer: 4, admitted: true, breached: true,
			opts: func(o *Options) { o.HookFor = func(string) secure.Hook { return tamperHook(-1, false) } }},

		{name: "create/bad_request", route: "POST /v1/sessions", key: "k", body: "{", status: 400, class: ClassBadRequest, layer: -1},
		{name: "create/unauthorized", route: "POST /v1/sessions", status: 401, class: ClassUnauthorized, layer: -1},
		{name: "create/shutdown", route: "POST /v1/sessions", key: "k", status: 503, class: ClassShutdown, retryMs: 1000, layer: -1,
			before: func(_ *testing.T, f *matrixFixture) func() { f.s.BeginDrain(); return nil }},
		{name: "delete/unknown_session", route: "DELETE /v1/sessions/s-00000000000000000000000000000000", key: "k", status: 404, class: ClassUnknownSession, layer: -1},
		{name: "snapshot/unknown_session", route: "GET /v1/sessions/s-00000000000000000000000000000000/snapshot", key: "k", status: 404, class: ClassUnknownSession, layer: -1},
		{name: "snapshot/unauthorized", route: "GET /v1/sessions/" + session + "/snapshot", key: "nope", status: 401, class: ClassUnauthorized, layer: -1},
		{name: "restore/bad_request", route: "POST /v1/sessions/restore", key: "k", body: "{", status: 400, class: ClassBadRequest, layer: -1},
		{name: "restore/snapshot_integrity", route: "POST /v1/sessions/restore", key: "k", body: "{forged}", status: 422, class: ClassSnapshot, layer: -1},
		{name: "restore/session_exists", route: "POST /v1/sessions/restore", key: "k", body: "{envelope}", status: 409, class: ClassSessionExists, layer: -1},
		{name: "restore/shutdown", route: "POST /v1/sessions/restore", key: "k", body: "{envelope}", status: 503, class: ClassShutdown, retryMs: 1000, layer: -1,
			before: func(_ *testing.T, f *matrixFixture) func() { f.s.BeginDrain(); return nil }},
		{name: "admin restore/unauthorized", route: "POST /admin/sessions/restore", adminKey: "nope", body: "{envelope}", status: 401, class: ClassUnauthorized, layer: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Scheduler:  SchedulerConfig{Workers: 1, MaxQueue: 1},
				AdminKey:   "admin-key",
				Tenants:    []TenantConfig{{Key: "k", Name: "t", RateRPS: 1, Burst: 1}, {Key: "k-hold", Name: "hold"}},
				Quarantine: QuarantineConfig{ThrottleAfter: 1, OpenAfter: 2, OpenFor: 5 * time.Second, ThrottleRPS: 1, ThrottleBurst: 1},
			}
			if tc.opts != nil {
				tc.opts(&opts)
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())
			f := &matrixFixture{s: s, now: time.Unix(1_000_000, 0)}
			s.tenants.now = func() time.Time { return f.now }
			created, err := s.sessions.Create("t", 0)
			if err != nil {
				t.Fatal(err)
			}
			f.session = created.SessionID
			env, err := s.SnapshotSession(f.session, "t")
			if err != nil {
				t.Fatal(err)
			}
			envelope, _ := json.Marshal(RestoreRequest{Snapshot: env})
			forged := env
			forged.MAC = strings.Repeat("0", len(forged.MAC))
			forgedBody, _ := json.Marshal(RestoreRequest{Snapshot: forged})

			inferRoute := tc.route == infer
			if inferRoute && !tc.probeless {
				f.halfOpen()
			}
			var after func()
			if tc.before != nil {
				after = tc.before(t, f)
			}

			method, path, _ := strings.Cut(strings.ReplaceAll(tc.route, session, f.session), " ")
			body := strings.NewReplacer(session, f.session, "{envelope}", string(envelope), "{forged}", string(forgedBody)).Replace(tc.body)
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			if tc.key != "" {
				req.Header.Set("X-API-Key", tc.key)
			}
			if tc.adminKey != "" {
				req.Header.Set("X-Admin-Key", tc.adminKey)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if after != nil {
				after()
			}

			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("body %q: %v", rec.Body, err)
			}
			if rec.Code != tc.status || eb.Class != tc.class || eb.RetryAfterMs != tc.retryMs {
				t.Fatalf("%d %s retry_after_ms %d (%s), want %d %s retry_after_ms %d",
					rec.Code, eb.Class, eb.RetryAfterMs, rec.Body, tc.status, tc.class, tc.retryMs)
			}
			wantHeader := ""
			if tc.retryMs > 0 {
				wantHeader = strconv.FormatInt((tc.retryMs+999)/1000, 10)
			}
			if got := rec.Header().Get("Retry-After"); got != wantHeader {
				t.Errorf("Retry-After %q, want %q", got, wantHeader)
			}
			if (eb.Layer != nil) != (tc.layer >= 0) || eb.Layer != nil && *eb.Layer != tc.layer {
				t.Errorf("layer %v, want %d", eb.Layer, tc.layer)
			}
			if eb.SessionEvicted != tc.evicted {
				t.Errorf("session_evicted %v, want %v", eb.SessionEvicted, tc.evicted)
			}

			scrape := s.metrics.reg.Render()
			count := func(name string, labels ...string) float64 {
				v, _ := metrics.Value(scrape, name, labels...)
				return v
			}
			wantRequests := 0.0
			if inferRoute {
				wantRequests = 1
			}
			if all, code := count("seculator_serve_requests_total"), count("seculator_serve_requests_total", "code", strconv.Itoa(tc.status)); all != wantRequests || code != wantRequests {
				t.Errorf("requests_total %v, {code=%d} %v, want %v", all, tc.status, code, wantRequests)
			}
			for _, reason := range []string{ShedRate, ShedQueue, ShedQuarantine} {
				want := 0.0
				if reason == tc.shed {
					want = 1
				}
				if got := count("seculator_serve_tenant_shed_total", "tenant", "t", "reason", reason); got != want {
					t.Errorf("tenant_shed{reason=%q} = %v, want %v", reason, got, want)
				}
			}
			if got, want := count("seculator_serve_tenant_admitted_total", "tenant", "t"), b2f(tc.admitted); got != want {
				t.Errorf("tenant_admitted = %v, want %v", got, want)
			}
			if got, want := count("seculator_serve_tenant_breaches_total", "tenant", "t"), b2f(tc.breached); got != want {
				t.Errorf("tenant_breaches = %v, want %v", got, want)
			}

			br := f.tenant("k").Breaker()
			br.mu.Lock()
			probing := br.probing
			br.mu.Unlock()
			if probing {
				t.Error("the half-open probe slot is still held")
			}
			if d := s.sched.Depth(); d != 0 {
				t.Errorf("scheduler depth %d after the refusal, want 0", d)
			}
		})
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
