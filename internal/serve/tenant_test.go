package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// A configured tenant registry turns authentication on: no key and unknown
// keys are 401, a known key serves and shows up on /metrics.
func TestTenantAuth(t *testing.T) {
	_, c := newTestServer(t, serve.Options{
		Tenants: []serve.TenantConfig{{Key: "k-alice", Name: "alice"}},
	})
	ctx := ctxT(t)

	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); !client.IsUnauthorized(err) {
		t.Fatalf("missing key: %v", err)
	}
	if _, err := c.CreateSession(ctx, serve.SessionCreateRequest{}); !client.IsUnauthorized(err) {
		t.Fatalf("missing key on session create: %v", err)
	}
	c.SetAPIKey("k-wrong")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); !client.IsUnauthorized(err) {
		t.Fatalf("unknown key: %v", err)
	}
	c.SetAPIKey("k-alice")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		t.Fatalf("known key refused: %v", err)
	}
	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, scrape, `seculator_serve_tenant_admitted_total{tenant="alice"}`); v != 1 {
		t.Fatalf("admitted{alice} = %v, want 1", v)
	}
	if !strings.Contains(scrape, `seculator_serve_tenant_breaker_state{tenant="alice"} 0`) {
		t.Fatalf("breaker state gauge missing:\n%s", scrape)
	}
}

// The per-tenant token bucket sheds above the configured rate with a
// Retry-After hint and a rate_limited class.
func TestTenantRateLimit(t *testing.T) {
	_, c := newTestServer(t, serve.Options{
		Tenants: []serve.TenantConfig{{Key: "k-a", Name: "a", RateRPS: 0.001, Burst: 1}},
	})
	ctx := ctxT(t)
	c.SetAPIKey("k-a")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		t.Fatalf("burst token refused: %v", err)
	}
	_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
	if !client.IsRateLimited(err) {
		t.Fatalf("second request should exceed the bucket: %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.RetryAfter() <= 0 {
		t.Fatalf("want 429 with Retry-After, got %v", err)
	}
	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, scrape, `seculator_serve_tenant_shed_total{tenant="a",reason="rate"}`); v != 1 {
		t.Fatalf(`shed{a,rate} = %v, want 1`, v)
	}
}

// A refused request is charged to exactly one shed reason: a queue-full
// refusal and a quarantine refusal each raise tenant_shed_total by one under
// their own reason, leave the other reasons at zero, and reach the client
// with the matching class.
func TestTenantShedByReason(t *testing.T) {
	checkShed := func(t *testing.T, c *client.Client, refusal error, tenant, class, reason string) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(refusal, &ae) || ae.Body.Class != class {
			t.Fatalf("refusal %v, want class %s", refusal, class)
		}
		scrape, err := c.Metrics(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []string{serve.ShedRate, serve.ShedQueue, serve.ShedQuarantine} {
			want := 0.0
			if r == reason {
				want = 1
			}
			name := fmt.Sprintf("seculator_serve_tenant_shed_total{tenant=%q,reason=%q}", tenant, r)
			if v, _ := metricLookup(t, scrape, name); v != want {
				t.Errorf("%s = %v, want %v", name, v, want)
			}
		}
	}

	t.Run("queue", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		var enter, free sync.Once
		unblock := func() { free.Do(func() { close(release) }) }
		_, c := newTestServer(t, serve.Options{
			Tenants:   []serve.TenantConfig{{Key: "k-a", Name: "a"}},
			Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 1},
			HookFor: hookAll(func(int, *mem.DRAM) {
				enter.Do(func() { close(entered) })
				<-release
			}),
		})
		t.Cleanup(unblock)
		c.SetAPIKey("k-a")
		ctx := ctxT(t)

		first := make(chan error, 1)
		go func() {
			_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1})
			first <- err
		}()
		<-entered // the first request runs and holds the only queue slot
		_, refusal := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
		unblock()
		if err := <-first; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
		checkShed(t, c, refusal, "a", serve.ClassQueueFull, serve.ShedQueue)
	})

	t.Run("quarantine", func(t *testing.T) {
		_, c := newTestServer(t, serve.Options{
			Tenants:      []serve.TenantConfig{{Key: "k-evil", Name: "evil"}},
			Quarantine:   serve.QuarantineConfig{OpenAfter: 1, OpenFor: time.Minute},
			InterceptFor: func(string) host.Intercept { return replayIntercept() },
		})
		c.SetAPIKey("k-evil")
		ctx := ctxT(t)

		sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
			t.Fatalf("replayed command should breach with 409: %v", err)
		}
		// The one breach opened the breaker for a minute.
		_, refusal := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
		checkShed(t, c, refusal, "evil", serve.ClassQuarantined, serve.ShedQuarantine)
	})
}

// A tenant cannot see, use, close, or snapshot another tenant's session —
// the failure is indistinguishable from an unknown session.
func TestTenantSessionIsolation(t *testing.T) {
	_, c := newTestServer(t, serve.Options{
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
	c.SetAPIKey("k-bob")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID}); !client.IsUnknownSession(err) {
		t.Fatalf("cross-tenant session use: %v", err)
	}
	if err := c.CloseSession(ctx, sess.SessionID); !client.IsUnknownSession(err) {
		t.Fatalf("cross-tenant session close: %v", err)
	}
	if _, err := c.SnapshotSession(ctx, sess.SessionID); !client.IsUnknownSession(err) {
		t.Fatalf("cross-tenant snapshot: %v", err)
	}
	c.SetAPIKey("k-alice")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID}); err != nil {
		t.Fatalf("owner locked out: %v", err)
	}
}

// A tenant's bounded sub-queue sheds its own overflow while the global
// queue still has room.
func TestTenantQueueBound(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{})
	var once, started sync.Once
	_, c := newTestServer(t, serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 64},
		Tenants:   []serve.TenantConfig{{Key: "k-a", Name: "a", MaxPending: 1}},
		HookFor: hookAll(func(phase int, _ *mem.DRAM) {
			started.Do(func() { close(running) })
			<-release
		}),
	})
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	ctx := ctxT(t)
	c.SetAPIKey("k-a")

	done := make(chan error, 2)
	infer := func(seed int64) {
		_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: seed})
		done <- err
	}
	// One request executing (blocked in the hook) — it has left the
	// sub-queue, whose bound of one the second would otherwise hit — then
	// one waiting in the tenant's sub-queue.
	go infer(0)
	<-running
	go infer(1)
	waitForHealth(t, c, func(h serve.HealthResponse) bool { return h.Queue == 2 })

	_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 9})
	if !client.IsQueueFull(err) {
		t.Fatalf("third request should hit the tenant bound: %v", err)
	}
	once.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("blocked request %d: %v", i, err)
		}
	}
}

// Weighted fair share under contention: with both sub-queues saturated and
// two workers pulling, a weight-3 tenant drains ~3 requests for every one of
// a weight-1 tenant.
func TestFairShareWeights(t *testing.T) {
	reg := serve.NewTenantRegistry([]serve.TenantConfig{
		{Key: "k-a", Name: "a", Weight: 3},
		{Key: "k-b", Name: "b", Weight: 1},
	}, serve.QuarantineConfig{}, nil)
	tenants := reg.All()
	a, b := tenants[0], tenants[1]
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatalf("registry order: %s, %s", a.Name(), b.Name())
	}

	fq := serve.NewScheduler(serve.SchedulerConfig{Workers: 2, MaxQueue: 256})
	defer fq.Close()

	// Hold both workers with blockers so both tenant queues fill before any
	// contested dequeue happens.
	blockers := make(chan struct{})
	started := make(chan struct{}, 2)
	var blocked sync.WaitGroup
	for i := 0; i < 2; i++ {
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			_, _, err := fq.Submit(context.Background(), a, func(context.Context) (any, error) {
				started <- struct{}{}
				<-blockers
				return nil, nil
			})
			if err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
	}
	// Both blockers must own a worker before any work enqueues.
	for i := 0; i < 2; i++ {
		<-started
	}

	var mu sync.Mutex
	var order []string
	const perTenant = 40
	var wg sync.WaitGroup
	submit := func(ten *serve.Tenant) {
		defer wg.Done()
		_, _, err := fq.Submit(context.Background(), ten, func(context.Context) (any, error) {
			mu.Lock()
			order = append(order, ten.Name())
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return nil, nil
		})
		if err != nil {
			t.Errorf("submit %s: %v", ten.Name(), err)
		}
	}
	for i := 0; i < perTenant; i++ {
		wg.Add(2)
		go submit(a)
		go submit(b)
	}
	// Both queues full behind the blockers, then contest the workers.
	waitFor(t, func() bool { return fq.Depth() == 2*perTenant+2 })
	close(blockers)
	blocked.Wait()
	wg.Wait()

	// In the first half of the drain, the weight-3 tenant must have clearly
	// outpaced the weight-1 tenant (ideal split 30:10; allow slack for two
	// workers recording out of dequeue order).
	half := order[:perTenant]
	countA := 0
	for _, name := range half {
		if name == "a" {
			countA++
		}
	}
	if countA < 2*(perTenant-countA) {
		t.Fatalf("weight-3 tenant got %d of first %d executions (weight-1 got %d); fair share not honored",
			countA, perTenant, perTenant-countA)
	}
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// replayIntercept builds the layer-2 → layer-4 command replay MITM used to
// drive breach-class errors through the HTTP boundary.
func replayIntercept() host.Intercept {
	var mu sync.Mutex
	var captured *host.Packet
	return func(layer int, p *host.Packet) {
		mu.Lock()
		defer mu.Unlock()
		switch layer {
		case 2:
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			captured = &cp
		case 4:
			if captured != nil {
				*p = *captured
			}
		}
	}
}

// Tenant breach quarantine through the HTTP boundary: an attacking tenant's
// breaches escalate its breaker from throttled to open (451 with
// Retry-After), half-open probes let it back only once clean, and an honest
// tenant on the same server never sees a quarantine response.
func TestTenantQuarantineEscalation(t *testing.T) {
	attack := true // flips off for the recovery phase
	var mu sync.Mutex
	setAttack := func(v bool) { mu.Lock(); attack = v; mu.Unlock() }
	attacking := func() bool { mu.Lock(); defer mu.Unlock(); return attack }

	_, c := newTestServer(t, serve.Options{
		Tenants: []serve.TenantConfig{
			{Key: "k-evil", Name: "evil"},
			{Key: "k-good", Name: "good"},
		},
		Quarantine: serve.QuarantineConfig{
			ThrottleAfter: 1, OpenAfter: 3, Window: time.Minute,
			OpenFor: 50 * time.Millisecond, MaxOpenFor: time.Second,
			ThrottleRPS: 1000, ThrottleBurst: 1000, ProbeSuccesses: 2,
		},
		InterceptFor: func(tenant string) host.Intercept {
			if tenant == "evil" && attacking() {
				return replayIntercept()
			}
			return nil
		},
	})
	ctx := ctxT(t)
	evil := c
	evil.SetAPIKey("k-evil")

	breach := func() {
		t.Helper()
		sess, err := evil.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
			t.Fatalf("attack should breach with 409: %v", err)
		}
	}

	breach() // 1st breach: closed -> throttled (still admits at probation rate)
	breach() // 2nd
	breach() // 3rd: opens

	_, err := evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
	if !client.IsQuarantined(err) {
		t.Fatalf("open breaker should refuse: %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnavailableForLegalReasons || ae.RetryAfter() <= 0 {
		t.Fatalf("want 451 with Retry-After, got %v", err)
	}

	// The honest tenant is untouched while the attacker sits in quarantine
	// (same client, sequential re-key).
	c.SetAPIKey("k-good")
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 10}); err != nil {
		t.Fatalf("honest tenant refused during attacker quarantine: %v", err)
	}
	c.SetAPIKey("k-evil")

	// Recovery: attacker goes clean; after the hold, half-open probes admit
	// one at a time and enough clean probes close the breaker.
	setAttack(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered via half-open probes")
		}
		_, err := evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 3})
		if err == nil {
			break // a probe (or post-close request) went through clean
		}
		if !client.IsQuarantined(err) {
			t.Fatalf("unexpected error during recovery: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// After two clean probes the breaker closes; sustained traffic flows.
	for i := 0; i < 3; i++ {
		if _, err := evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(4 + i)}); err != nil && !client.IsQuarantined(err) {
			t.Fatalf("clean traffic after recovery: %v", err)
		}
	}
	scrape, err := evil.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, scrape, `seculator_serve_tenant_breaker_opens_total{tenant="evil"}`); v < 1 {
		t.Fatalf("breaker_opens{evil} = %v, want >= 1", v)
	}
	if v := metricValue(t, scrape, `seculator_serve_tenant_breaches_total{tenant="evil"}`); v < 3 {
		t.Fatalf("breaches{evil} = %v, want >= 3", v)
	}
	if v, ok := metricLookup(t, scrape, `seculator_serve_tenant_breaches_total{tenant="good"}`); ok && v != 0 {
		t.Fatalf("honest tenant charged with breaches: %v", v)
	}
}
