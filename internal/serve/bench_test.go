package serve_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

func newBenchServer(b *testing.B, opts serve.Options) *client.Client {
	b.Helper()
	s, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
		hs.Close()
	})
	return client.New(hs.URL, hs.Client())
}

// benchInput derives a distinct deterministic activation input per
// iteration, so the fixed-model benchmarks measure the residency hit path
// (weights pinned, inputs varying) the way production traffic looks.
func benchInput(i int) []int32 {
	net := serve.MiniNet()
	first := net.Layers[0]
	in := make([]int32, first.C*first.H*first.W)
	x := uint64(i)*2654435761 + 99
	for j := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[j] = int32(x>>33)%257 - 128
	}
	return in
}

// BenchmarkServeInfer is the serving-layer round-trip: HTTP + scheduler +
// secure functional inference, one request at a time. Seeds vary per iteration — a distinct model per request, so
// every request pays a residency build: the cold path.
func BenchmarkServeInfer(b *testing.B) {
	c := newBenchServer(b, serve.Options{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeInferResident is the production serving shape: one pinned
// model, per-request inputs — after the first request, every inference
// attaches to the verified residency and skips weight provisioning.
func BenchmarkServeInferResident(b *testing.B) {
	c := newBenchServer(b, serve.Options{})
	ctx := context.Background()
	// Warm the pin outside the timed region.
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Input: benchInput(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSessionInfer adds the authenticated command channel to the
// measured path, riding the same pinned model.
func BenchmarkServeSessionInfer(b *testing.B) {
	c := newBenchServer(b, serve.Options{})
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := serve.InferRequest{Network: "Mini", Seed: 1, Input: benchInput(i), Session: sess.SessionID}
		if _, err := c.Infer(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
