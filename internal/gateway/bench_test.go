package gateway_test

import (
	"context"
	"testing"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

func newBenchCluster(b *testing.B, n int) *client.Client {
	b.Helper()
	c, err := gateway.StartLocal(gateway.LocalOptions{Replicas: n})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	return client.New(c.GatewayURL, nil)
}

// benchInput derives a distinct deterministic activation input per
// iteration (same recipe as the serve benches), so the pinned-model
// benches measure the hot path with varying inputs.
func benchInput(i int) []int32 {
	net := workload.Mini()
	first := net.Layers[0]
	in := make([]int32, first.C*first.H*first.W)
	x := uint64(i)*2654435761 + 99
	for j := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[j] = int32(x>>33)%257 - 128
	}
	return in
}

// BenchmarkGatewayInfer measures the proxy overhead the gateway adds on
// top of a replica's stateless inference: one extra HTTP hop plus routing.
// Compare against BenchmarkServeInferResident for the delta.
func BenchmarkGatewayInfer(b *testing.B) {
	c := newBenchCluster(b, 2)
	ctx := context.Background()
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

// BenchmarkGatewaySessionInfer adds the sticky-session path: vault
// lookup, home routing, and the write-through snapshot piggyback (the
// replica seals a snapshot per inference).
func BenchmarkGatewaySessionInfer(b *testing.B) {
	c := newBenchCluster(b, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
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
