package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seculator"
	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/secure"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

// newTestServer brings up a server behind httptest and returns a typed
// client for it. Cleanup drains the scheduler before the listener dies.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *client.Client) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return s, client.New(hs.URL, hs.Client())
}

// hookAll and interceptAll attach one attack hook to every tenant's
// inferences.
func hookAll(h secure.Hook) func(string) secure.Hook {
	return func(string) secure.Hook { return h }
}

func interceptAll(ic host.Intercept) func(string) host.Intercept {
	return func(string) host.Intercept { return ic }
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// The headline round-trip: a stateless secure inference over HTTP whose
// output checksum matches the local reference computation.
func TestInferRoundTrip(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	resp, err := c.Infer(ctxT(t), serve.InferRequest{Network: "Mini", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Mini()
	in, ws := seculator.RandomModel(net, 42)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OutputSum != serve.OutputSum(golden) {
		t.Fatalf("served checksum %#x, reference %#x", resp.OutputSum, serve.OutputSum(golden))
	}
	if resp.Cycles == 0 || resp.Layers != len(net.Layers) {
		t.Fatalf("response metadata: %+v", resp)
	}
	if resp.Commands != 0 {
		t.Fatalf("sessionless inference reported %d commands", resp.Commands)
	}
	if resp.OutputDims != [3]int{golden.Chans, golden.H, golden.W} {
		t.Fatalf("dims %v", resp.OutputDims)
	}
}

// A session-bound inference runs the authenticated command channel and the
// ReturnOutput flag round-trips the full tensor.
func TestSessionInferRoundTrip(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := ctxT(t)
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.SessionID == "" || sess.IdleTimeoutMs <= 0 {
		t.Fatalf("session grant: %+v", sess)
	}
	resp, err := c.Infer(ctx, serve.InferRequest{
		Network: "Mini", Seed: 7, Session: sess.SessionID, ReturnOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Mini()
	if resp.Commands != len(net.Layers) {
		t.Fatalf("%d commands for %d layers", resp.Commands, len(net.Layers))
	}
	in, ws := seculator.RandomModel(net, 7)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != len(golden.Data) {
		t.Fatalf("output length %d, want %d", len(resp.Output), len(golden.Data))
	}
	for i := range golden.Data {
		if resp.Output[i] != golden.Data[i] {
			t.Fatalf("output[%d] = %d, reference %d", i, resp.Output[i], golden.Data[i])
		}
	}
	// Close the session; reuse must then 404.
	if err := c.CloseSession(ctx, sess.SessionID); err != nil {
		t.Fatal(err)
	}
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 7, Session: sess.SessionID})
	if !client.IsUnknownSession(err) {
		t.Fatalf("inference on closed session: %v", err)
	}
}

// An explicit input override replaces the seed-generated activations.
func TestInferInputOverride(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	net := workload.Mini()
	in, ws := seculator.RandomModel(net, 3)
	for i := range in.Data {
		in.Data[i] = int32(i % 11)
	}
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Infer(ctxT(t), serve.InferRequest{Network: "Mini", Seed: 3, Input: in.Data})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OutputSum != serve.OutputSum(golden) {
		t.Fatal("override input did not reach the execution")
	}
	// Wrong length must be rejected up front.
	_, err = c.Infer(ctxT(t), serve.InferRequest{Network: "Mini", Seed: 3, Input: []int32{1, 2, 3}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: %v", err)
	}
}

func TestInferBadRequests(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	var ae *client.APIError
	_, err := c.Infer(ctxT(t), serve.InferRequest{Network: "NoSuchNet"})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || ae.Body.Class != serve.ClassBadRequest {
		t.Fatalf("unknown network: %v", err)
	}
	_, err = c.Infer(ctxT(t), serve.InferRequest{Network: "Mini", Session: "s-deadbeef"})
	if !client.IsUnknownSession(err) {
		t.Fatalf("unknown session: %v", err)
	}
}

func TestDesignsRegistry(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	resp, err := c.Designs(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Designs) != 6 {
		t.Fatalf("%d designs, want 6", len(resp.Designs))
	}
	names := map[string]bool{}
	for _, n := range resp.Networks {
		names[n.Name] = true
	}
	for _, want := range []string{"Mini", "MobileNet", "ResNet18", "AlexNet", "VGG16", "VGG19"} {
		if !names[want] {
			t.Fatalf("registry missing %s (have %v)", want, resp.Networks)
		}
	}
}

// /metrics carries the serving counters and the simulation-cache lines,
// and ResetSimCacheStats windows the cache counters without evicting.
func TestMetricsAndCacheWindowing(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := ctxT(t)
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`seculator_serve_requests_total{code="200"} 2`,
		"seculator_serve_infer_ok_total 2",
		"seculator_serve_infer_queue_ms_total",
		"seculator_serve_sim_cache_hits",
		"seculator_serve_sim_cache_misses",
		"seculator_serve_sim_cache_entries",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, m)
		}
	}

	// Window the cache counters: hits/misses reset, entries survive.
	seculator.ResetSimCacheStats()
	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "seculator_serve_sim_cache_hits 0\n") ||
		!strings.Contains(m, "seculator_serve_sim_cache_misses 0\n") {
		t.Fatalf("cache counters not windowed:\n%s", m)
	}
	if strings.Contains(m, "seculator_serve_sim_cache_entries 0\n") {
		t.Fatal("windowing evicted the cache entries")
	}
	// The warm entry serves the next request as a hit in the new window.
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	m, _ = c.Metrics(ctx)
	if !strings.Contains(m, "seculator_serve_sim_cache_hits 1\n") {
		t.Fatalf("windowed hit not counted:\n%s", m)
	}
}

// Queue-full admission control surfaces as 429 with Retry-After over HTTP.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	_, c := newTestServer(t, serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 1},
		HookFor: hookAll(func(phase int, _ *mem.DRAM) {
			<-release
		}),
	})
	defer once.Do(func() { close(release) })
	ctx := ctxT(t)

	first := make(chan error, 1)
	go func() {
		_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1})
		first <- err
	}()
	waitForHealth(t, c, func(h serve.HealthResponse) bool { return h.Queue == 1 })

	_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
	if !client.IsQueueFull(err) {
		t.Fatalf("over-admission: %v, want queue_full", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.RetryAfter() <= 0 {
		t.Fatalf("429 shape: %v", err)
	}

	once.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

// A per-request deadline expiring under load surfaces as 503 with the
// deadline class and Retry-After.
func TestDeadline503(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	_, c := newTestServer(t, serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 8},
		HookFor: hookAll(func(phase int, _ *mem.DRAM) {
			<-release
		}),
	})
	defer once.Do(func() { close(release) })
	ctx := ctxT(t)

	first := make(chan error, 1)
	go func() {
		_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1})
		first <- err
	}()
	waitForHealth(t, c, func(h serve.HealthResponse) bool { return h.Queue == 1 })

	_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2, TimeoutMs: 50})
	if !client.IsDeadline(err) {
		t.Fatalf("deadline expiry: %v, want deadline class", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || ae.RetryAfter() <= 0 {
		t.Fatalf("503 shape: %v", err)
	}
	once.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

// Graceful drain over HTTP: Close finishes admitted work, healthz reports
// draining, and new inferences are rejected with the shutdown class.
func TestDrainOverHTTP(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, err := serve.New(serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 8},
		HookFor: hookAll(func(phase int, _ *mem.DRAM) {
			<-release
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := ctxT(t)
	defer once.Do(func() { close(release) })

	first := make(chan error, 1)
	go func() {
		_, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1})
		first <- err
	}()
	waitForHealth(t, c, func(h serve.HealthResponse) bool { return h.Queue == 1 })

	closed := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		closed <- s.Close(dctx)
	}()
	waitForHealth(t, c, func(h serve.HealthResponse) bool { return h.Status == "draining" })

	// New work is rejected while draining.
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 2})
	if !client.IsShutdown(err) {
		t.Fatalf("infer during drain: %v, want shutdown class", err)
	}
	// Close must not return while the admitted request is still executing.
	select {
	case err := <-closed:
		t.Fatalf("Close returned before drain finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	once.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("admitted request dropped during drain: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitForHealth(t *testing.T, c *client.Client, cond func(serve.HealthResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := c.Health(context.Background())
		if err == nil && cond(h) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting for health condition")
}

// Shrunk benchmarks serve end to end ("AlexNet/32" is small enough for a
// functional secure inference in test time).
func TestInferShrunkBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("functional inference on a shrunk benchmark")
	}
	_, c := newTestServer(t, serve.Options{})
	resp, err := c.Infer(ctxT(t), serve.InferRequest{Network: "AlexNet/32", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Network != "AlexNet/32" || resp.Cycles == 0 {
		t.Fatalf("shrunk inference: %+v", resp)
	}
}
